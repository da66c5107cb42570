package node

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupcast/internal/reliable"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// TestIdleNodeGoroutines pins the node's goroutine budget: a started, idle
// node with heartbeats on runs its event loop and its transport's inbox pump,
// nothing else. Every periodic duty shares the loop.
func TestIdleNodeGoroutines(t *testing.T) {
	baseline := settledGoroutines()
	net := transport.NewMemNetwork()
	cfg := DefaultConfig(10, nil, 1)
	cfg.HeartbeatInterval = 100 * time.Millisecond
	n := New(net.NextEndpoint(), cfg)
	n.Start()
	// Several epochs, and with them NACK sweeps and pressure samples.
	waitFor(t, testTimeout, func() bool { return n.epochNow.Load() >= 3 }, static("no epochs ran"))
	// Loop and pump only: no flow the loop starts gets a goroutine.
	waitGoroutines(t, baseline+2, 2*time.Second)
	if got := runtime.NumGoroutine() - baseline; got < 2 {
		t.Fatalf("idle node added %d goroutines, want 2 (loop + inbox pump)", got)
	}
	_ = n.Close()
	waitGoroutines(t, baseline, 2*time.Second)
}

// TestHandlerContractSerial pins the PayloadHandler contract across all four
// release paths — a live arrival, a digest forcing a held payload out, a
// NACK-sweep abandonment, and a succession promotion: no handler call ever
// overlaps another. Run with -race.
func TestHandlerContractSerial(t *testing.T) {
	net := transport.NewMemNetwork()
	cfg := DefaultConfig(10, nil, 1)
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.ReliableWindow = 8
	cfg.DisableDHT = true
	n := New(net.NextEndpoint(), cfg)
	// peer relays src's stream to n and never answers anything.
	peer := net.NextEndpoint()
	defer peer.Close()
	src := wire.PeerInfo{Addr: "src"}
	const live = 200

	var inFlight, overlaps atomic.Int32
	var mu sync.Mutex
	calls := make(map[string]int)
	n.SetPayloadHandler(func(gid string, _ wire.PeerInfo, _ []byte) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(100 * time.Microsecond) // widen any overlap
		mu.Lock()
		calls[gid]++
		mu.Unlock()
		inFlight.Add(-1)
	})

	// Each timer- or control-driven path gets its own group whose window
	// already holds seq 3 behind a gap at 2: a payload only that path can
	// release. n roots the groups src publishes into; "promo" hangs under
	// peer and n is its first deputy, with the root silent for an hour.
	past := time.Now().Add(-time.Minute)
	n.mu.Lock()
	for _, gid := range []string{"live", "digest", "sweep", "promo"} {
		gs := newGroupState(wire.ReliableOrdered)
		gs.member = true
		gs.rendezvous = gid != "promo"
		n.groups[gid] = gs
		if gid == "live" {
			continue
		}
		w := n.windowForLocked(gs, src)
		var res reliable.ObserveResult
		w.ObserveItem(1, reliable.Item{Data: []byte("p1")}, past, &res)
		w.ObserveItem(3, reliable.Item{Data: []byte("p3")}, past, &res)
		if gid == "sweep" {
			// Spend every NACK attempt on gap 2: the loop's next sweep
			// abandons it and releases seq 3.
			for i := 0; i < reliable.DefaultNackMaxAttempts; i++ {
				w.DueGaps(past.Add(time.Duration(i)*time.Second), reliable.NackPolicy{}, &res)
			}
		}
	}
	promo := n.groups["promo"]
	promo.parent = peer.Addr()
	promo.lastRoot = time.Now().Add(-time.Hour)
	promo.charter = wire.Charter{
		GroupID: "promo", Mode: wire.ReliableOrdered, Epoch: 1,
		Deputies:  []wire.PeerInfo{n.self},
		HighWater: []wire.DigestEntry{{Source: src.Addr, High: 11}},
	}
	n.mu.Unlock()

	n.Start()
	defer n.Close()
	for seq := uint64(1); seq <= live; seq++ {
		_ = peer.Send(n.Addr(), wire.Message{
			Type: wire.TPayload, From: src, Relay: wire.PeerInfo{Addr: peer.Addr()},
			GroupID: "live", Seq: seq, Mode: wire.ReliableOrdered, Data: []byte("x"),
		})
		if seq == live/2 {
			// The window span is 8: a high of 11 slides seq 3 out.
			_ = peer.Send(n.Addr(), wire.Message{
				Type: wire.TDigest, From: wire.PeerInfo{Addr: peer.Addr()}, GroupID: "digest",
				Mode: wire.ReliableOrdered, Digest: []wire.DigestEntry{{Source: src.Addr, High: 11}},
			})
		}
		time.Sleep(time.Millisecond)
	}

	want := map[string]int{"live": live, "digest": 1, "sweep": 1, "promo": 1}
	waitFor(t, testTimeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for gid, c := range want {
			if calls[gid] != c {
				return false
			}
		}
		return true
	}, func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("handler calls per release path = %v, want %v", calls, want)
	})
	if got := n.Stats().Promotions; got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	if got := overlaps.Load(); got != 0 {
		t.Fatalf("%d handler calls overlapped another", got)
	}
}

// TestHandlerContractRepublish: a handler may Publish. b re-publishes every
// payload of group "in" into its own group "out" from inside its handler;
// each Publish returns nil without deadlocking b's loop, and c receives the
// re-published stream in order.
func TestHandlerContractRepublish(t *testing.T) {
	mem := transport.NewMemNetwork()
	eps := []transport.Transport{mem.NextEndpoint(), mem.NextEndpoint(), mem.NextEndpoint()}
	nodes := lineCluster(t, eps, nil)
	a, b, c := nodes[0], nodes[1], nodes[2]
	for _, g := range []struct {
		rdv, member *Node
		gid         string
	}{{a, b, "in"}, {b, c, "out"}} {
		if err := g.rdv.CreateGroupMode(g.gid, wire.ReliableOrdered); err != nil {
			t.Fatal(err)
		}
		if err := g.rdv.Advertise(g.gid); err != nil {
			t.Fatal(err)
		}
		waitFor(t, testTimeout, func() bool {
			return g.member.Join(g.gid, 200*time.Millisecond) == nil
		}, static("could not join "+g.gid))
	}

	const count = 50
	errs := make(chan error, count)
	b.SetPayloadHandler(func(gid string, _ wire.PeerInfo, data []byte) {
		if gid == "in" {
			errs <- b.Publish("out", data)
		}
	})
	rec := recordPayloads(c)
	for i := 0; i < count; i++ {
		if err := a.Publish("in", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("Publish from the handler: %v", err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("handler re-published %d of %d payloads: b's loop is stuck", i, count)
		}
	}
	waitFor(t, testTimeout, func() bool {
		return rec.count(b.Addr()) >= count
	}, func() string {
		return fmt.Sprintf("c received %d of %d re-published payloads", rec.count(b.Addr()), count)
	})
	rec.assertFIFO(t, "c", b.Addr(), count)
}
