package node

import (
	"fmt"
	"math/rand"
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
	c := newLossy(t, 7, 0.02)
	rng := rand.New(rand.NewSource(8))
	sampler := peer.MustTable1Sampler()

	config := func(i int) Config {
		cfg := DefaultConfig(float64(sampler.Sample(rng)),
			coords.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(i+1))
		cfg.HeartbeatInterval = 400 * time.Millisecond
		cfg.AdvertiseRefreshEpochs = 3
		return cfg
	}

	for i := 0; i < 24; i++ {
		contacts := newest(c.nodes, 6)
		if err := c.node(t, config(i)).Bootstrap(contacts, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	rdv := c.nodes[0]
	if err := rdv.CreateGroup("soak"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("soak"); err != nil {
		t.Fatal(err)
	}
	c.Run(200 * time.Millisecond)

	delivered := map[string]int{}
	join := func(nd *Node) bool {
		for attempt := 0; attempt < 4; attempt++ {
			if nd.Join("soak", time.Second) == nil {
				addr := nd.Addr()
				nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { delivered[addr]++ })
				return true
			}
		}
		return false
	}
	members := []*Node{}
	for _, nd := range c.nodes[1:] {
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
	nextID := len(c.nodes)
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
		fresh := c.node(t, config(nextID))
		nextID++
		contacts := []string{rdv.Addr(), members[len(members)-1].Addr()}
		if err := fresh.Bootstrap(contacts, 2*time.Second); err == nil {
			// The refresh advertisement may take a couple of epochs to
			// reach it; join retries internally handle that.
			c.Run(250 * time.Millisecond)
			if join(fresh) {
				members = append(members, fresh)
			}
		} else {
			_ = fresh.Close()
		}

		// Let heartbeats detect the crash, then publish.
		c.Run(1500 * time.Millisecond)
		if err := rdv.Publish("soak", []byte(fmt.Sprintf("round %d", round))); err != nil {
			t.Fatal(err)
		}
		published++
	}

	// Final publish after the storm settles.
	c.Run(3 * time.Second)
	before := map[string]int{}
	for k, v := range delivered {
		before[k] = v
	}
	if err := rdv.Publish("soak", []byte("final")); err != nil {
		t.Fatal(err)
	}
	reached := func() int {
		got := 0
		for _, m := range members {
			if delivered[m.Addr()] > before[m.Addr()] {
				got++
			}
		}
		return got
	}
	deadline := c.Now().Add(15 * time.Second)
	lastPublish := c.Now()
	for reached() < len(members)/2 {
		if c.Now().After(deadline) {
			// Diagnostic dump: each unreached member's tree state.
			byAddr := map[string]*Node{}
			for _, nd := range c.nodes {
				byAddr[nd.Addr()] = nd
			}
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
			t.Fatalf("final publish reached %d of %d members", reached(), len(members))
		}
		// Healing is asynchronous: keep publishing while waiting so members
		// that reattach late still hear something.
		if c.Now().Sub(lastPublish) > time.Second {
			if err := rdv.Publish("soak", []byte("final-again")); err != nil {
				t.Fatal(err)
			}
			lastPublish = c.Now()
		}
		c.Run(20 * time.Millisecond)
	}
}
