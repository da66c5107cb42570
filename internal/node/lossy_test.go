package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// TestClusterToleratesMessageLoss runs a live cluster over a fabric dropping
// 5% of all messages. Bootstrap, heartbeats, joins and publishes must still
// mostly work (the protocol retries joins; payloads are fire-and-forget so
// some loss is expected).
func TestClusterToleratesMessageLoss(t *testing.T) {
	net := transport.NewMemNetwork()
	net.SetDropRate(0.05, 99)

	var nodes []*Node
	for i := 0; i < 20; i++ {
		cfg := DefaultConfig(float64(10*(1+i%3)), coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 500 * time.Millisecond
		nd := New(net.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for j := 0; j < len(nodes) && j < 6; j++ {
			contacts = append(contacts, nodes[len(nodes)-1-j].Addr())
		}
		// Loss can defeat a bootstrap round; retry a few times.
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if err = nd.Bootstrap(contacts, 500*time.Millisecond); err == nil && (len(contacts) == 0 || nd.NumNeighbors() > 0) {
				break
			}
		}
		if len(contacts) > 0 && nd.NumNeighbors() == 0 {
			t.Fatalf("node %d could not bootstrap under loss: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()

	rdv := nodes[0]
	if err := rdv.CreateGroup("lossy"); err != nil {
		t.Fatal(err)
	}
	// Advertise repeatedly: floods are lossy too.
	for i := 0; i < 3; i++ {
		if err := rdv.Advertise("lossy"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	joined := 0
	var members []*Node
	for _, nd := range nodes[1:] {
		ok := false
		for attempt := 0; attempt < 6 && !ok; attempt++ {
			ok = nd.Join("lossy", time.Second) == nil
		}
		if ok {
			joined++
			members = append(members, nd)
		}
	}
	if joined < 10 {
		t.Fatalf("only %d/19 joined under 5%% loss", joined)
	}

	var mu sync.Mutex
	count := 0
	for _, m := range members {
		m.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	}
	// Publish several payloads; require that a clear majority of
	// member-deliveries happen despite the loss.
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := rdv.Publish("lossy", []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Single-core CI machines under instrumentation are slow; accept a
	// third of the ideal deliveries within a generous window.
	want := rounds * len(members) / 3
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count >= want
	}, func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("only %d deliveries, want >= %d", count, want)
	})
}

// TestReliableClusterRecoversAllUnderLoss runs the same 5% loss schedule as
// the best-effort test above against a Reliable-mode group and demands
// complete delivery: every member must eventually hand every published
// payload to the application, because the NACK/digest recovery machinery —
// not luck — is what closes the gaps.
func TestReliableClusterRecoversAllUnderLoss(t *testing.T) {
	net := transport.NewMemNetwork()
	net.SetDropRate(0.05, 99)

	var nodes []*Node
	for i := 0; i < 12; i++ {
		cfg := DefaultConfig(float64(10*(1+i%3)), coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 200 * time.Millisecond
		nd := New(net.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for j := 0; j < len(nodes) && j < 6; j++ {
			contacts = append(contacts, nodes[len(nodes)-1-j].Addr())
		}
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if err = nd.Bootstrap(contacts, 500*time.Millisecond); err == nil && (len(contacts) == 0 || nd.NumNeighbors() > 0) {
				break
			}
		}
		if len(contacts) > 0 && nd.NumNeighbors() == 0 {
			t.Fatalf("node %d could not bootstrap under loss: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()

	rdv := nodes[0]
	if err := rdv.CreateGroupMode("lossy-rel", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := rdv.Advertise("lossy-rel"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	var members []*Node
	for _, nd := range nodes[1:] {
		ok := false
		for attempt := 0; attempt < 6 && !ok; attempt++ {
			ok = nd.Join("lossy-rel", time.Second) == nil
		}
		if ok {
			members = append(members, nd)
		}
	}
	if len(members) < 6 {
		t.Fatalf("only %d/11 joined under 5%% loss", len(members))
	}

	var mu sync.Mutex
	perMember := make(map[string]int)
	for _, m := range members {
		addr := m.Addr()
		m.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			mu.Lock()
			perMember[addr]++
			mu.Unlock()
		})
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if err := rdv.Publish("lossy-rel", []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// 100%: every member delivers every round. The loss schedule is the
	// same as the best-effort test's; the recovery machinery makes up the
	// difference.
	waitFor(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range members {
			if perMember[m.Addr()] < rounds {
				return false
			}
		}
		return true
	}, func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("incomplete reliable delivery: %v (want %d each)", perMember, rounds)
	})
}
