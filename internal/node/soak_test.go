package node

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/peer"
	"groupcast/internal/wire"
)

// TestSoakChurnAndLoss runs a live cluster under simultaneous message loss,
// node crashes, graceful departures, and fresh joins, while the rendezvous
// keeps publishing. The group must keep delivering to surviving members.
func TestSoakChurnAndLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	endpoint := lossyEndpoints(7, 0.02)
	rng := rand.New(rand.NewSource(8))
	sampler := peer.MustTable1Sampler()

	newNode := func(i int) *Node {
		cfg := DefaultConfig(float64(sampler.Sample(rng)),
			coords.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(i+1))
		cfg.HeartbeatInterval = 400 * time.Millisecond
		cfg.AdvertiseRefreshEpochs = 3
		return New(endpoint(), cfg)
	}

	var nodes []*Node
	for i := 0; i < 24; i++ {
		nd := newNode(i)
		nd.Start()
		var contacts []string
		for j := 0; j < len(nodes) && j < 6; j++ {
			contacts = append(contacts, nodes[len(nodes)-1-j].Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	closeAll := func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}
	defer closeAll()

	rdv := nodes[0]
	if err := rdv.CreateGroup("soak"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("soak"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	var mu sync.Mutex
	delivered := map[string]int{}
	join := func(nd *Node) bool {
		for attempt := 0; attempt < 4; attempt++ {
			if nd.Join("soak", time.Second) == nil {
				addr := nd.Addr()
				nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
					mu.Lock()
					delivered[addr]++
					mu.Unlock()
				})
				return true
			}
		}
		return false
	}
	members := []*Node{}
	for _, nd := range nodes[1:] {
		if join(nd) {
			members = append(members, nd)
		}
	}
	if len(members) < 15 {
		t.Fatalf("only %d members before the storm", len(members))
	}

	// The storm: 6 rounds of crash one member + graceful-leave one + add a
	// fresh node that joins, with publishes in between.
	published := 0
	nextID := len(nodes)
	for round := 0; round < 6; round++ {
		// Crash the oldest surviving non-rendezvous member abruptly.
		victim := members[0]
		members = members[1:]
		_ = victim.tr.Close()

		// Graceful departure of another member.
		if len(members) > 2 {
			leaver := members[0]
			members = members[1:]
			_ = leaver.Leave("soak")
			_ = leaver.Close()
		}

		// A fresh node joins the overlay and the group.
		fresh := newNode(nextID)
		nextID++
		fresh.Start()
		contacts := []string{rdv.Addr(), members[len(members)-1].Addr()}
		if err := fresh.Bootstrap(contacts, 2*time.Second); err == nil {
			nodes = append(nodes, fresh)
			// The refresh advertisement may take a couple of epochs to
			// reach it; join retries internally handle that.
			time.Sleep(250 * time.Millisecond)
			if join(fresh) {
				members = append(members, fresh)
			}
		} else {
			_ = fresh.Close()
		}

		// Let heartbeats detect the crash, then publish.
		time.Sleep(1500 * time.Millisecond)
		if err := rdv.Publish("soak", []byte(fmt.Sprintf("round %d", round))); err != nil {
			t.Fatal(err)
		}
		published++
	}

	// Final publish after the storm settles (generous: single-core CI under
	// load detects crashes slowly).
	time.Sleep(3 * time.Second)
	mu.Lock()
	before := map[string]int{}
	for k, v := range delivered {
		before[k] = v
	}
	mu.Unlock()
	if err := rdv.Publish("soak", []byte("final")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	lastPublish := time.Now()
	for {
		// Healing is asynchronous: keep publishing while waiting so members
		// that reattach late still hear something.
		if time.Since(lastPublish) > time.Second {
			if err := rdv.Publish("soak", []byte("final-again")); err != nil {
				t.Fatal(err)
			}
			lastPublish = time.Now()
		}
		mu.Lock()
		got := 0
		for _, m := range members {
			if delivered[m.Addr()] > before[m.Addr()] {
				got++
			}
		}
		mu.Unlock()
		if got >= len(members)/2 {
			break
		}
		if time.Now().After(deadline) {
			// Diagnostic dump: each unreached member's tree state.
			byAddr := map[string]*Node{}
			for _, nd := range nodes {
				byAddr[nd.Addr()] = nd
			}
			mu.Lock()
			for _, m := range members {
				if delivered[m.Addr()] > before[m.Addr()] {
					continue
				}
				tv := m.Tree("soak")
				parent, kids := tv.Parent, len(tv.Children)
				chain := []string{m.Addr()}
				cur := parent
				for hops := 0; cur != "" && hops < 10; hops++ {
					chain = append(chain, cur)
					nd := byAddr[cur]
					if nd == nil {
						chain = append(chain, "(unknown)")
						break
					}
					g2 := nd.Tree("soak")
					if !g2.Exists {
						cur = "(no-state)"
						chain = append(chain, cur)
						break
					}
					if g2.Rendezvous {
						chain = append(chain, "RDV")
						break
					}
					cur = g2.Parent
				}
				t.Logf("unreached %s: parent=%q kids=%d chain=%v", m.Addr(), parent, kids, chain)
			}
			mu.Unlock()
			t.Fatalf("final publish reached %d of %d members", got, len(members))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
