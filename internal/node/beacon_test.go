package node

import (
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// TestBeaconRefreshesRootPath checks that rendezvous beacons flow down the
// tree, keep members fresh, and carry accurate root paths.
func TestBeaconRefreshesRootPath(t *testing.T) {
	net := transport.NewMemNetwork()
	mk := func(seed int64) *Node {
		cfg := DefaultConfig(10, coords.Point{float64(seed), 0}, seed)
		cfg.HeartbeatInterval = 50 * time.Millisecond
		nd := New(net.NextEndpoint(), cfg)
		nd.Start()
		return nd
	}
	a, b, c := mk(1), mk(2), mk(3)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	_ = a.Bootstrap(nil, time.Second)
	if err := b.Bootstrap([]string{a.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap([]string{b.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := a.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := b.Join("g", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Join("g", time.Second); err != nil {
		t.Fatal(err)
	}
	// Within a few epochs the beacon must reach c with a correct root path.
	waitFor(t, 3*time.Second, func() (ok bool) {
		c.post(func() {
			gs := c.groups["g"]
			// Root path starts at the rendezvous.
			ok = gs != nil && gs.parent != "" && time.Since(gs.lastBeacon) <= time.Second &&
				len(gs.rootPath) >= 1 && gs.rootPath[0] == a.Addr()
		})
		return ok
	}, static("beacon never refreshed c's root path"))
}

// TestBeaconCycleDetection hand-builds a parent cycle between two nodes and
// verifies the beacon-staleness machinery tears it down and reattaches both
// to the real tree.
func TestBeaconCycleDetection(t *testing.T) {
	net := transport.NewMemNetwork()
	mk := func(seed int64) *Node {
		cfg := DefaultConfig(10, coords.Point{float64(seed), 0}, seed)
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.BeaconGraceEpochs = 4
		nd := New(net.NextEndpoint(), cfg)
		nd.Start()
		return nd
	}
	rdv, x, y := mk(1), mk(2), mk(3)
	defer rdv.Close()
	defer x.Close()
	defer y.Close()
	_ = rdv.Bootstrap(nil, time.Second)
	if err := x.Bootstrap([]string{rdv.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := y.Bootstrap([]string{rdv.Addr(), x.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	// Force a severed x ↔ y cycle by hand.
	forceState := func(nd *Node, parent string, child wire.PeerInfo) {
		nd.post(func() {
			gs := nd.groups["g"]
			if gs == nil {
				gs = newGroupState(wire.BestEffort)
				nd.groups["g"] = gs
			}
			gs.member = true
			gs.parent = parent
			gs.children[child.Addr] = child
			gs.lastBeacon = time.Now().Add(-time.Hour) // already stale
		})
	}
	forceState(x, y.Addr(), y.Info())
	forceState(y, x.Addr(), x.Info())

	// The stale-beacon detach plus epoch rejoin must give both nodes real
	// paths to the rendezvous.
	waitFor(t, 5*time.Second, func() bool {
		ok := true
		for _, nd := range []*Node{x, y} {
			var fresh, cycle bool
			nd.post(func() {
				gs := nd.groups["g"]
				fresh = gs != nil && gs.parent != "" && time.Since(gs.lastBeacon) < time.Second
				cycle = gs != nil && (gs.parent == x.Addr() || gs.parent == y.Addr()) &&
					gs.parent != "" && nd.Addr() != gs.parent &&
					((nd == x && gs.parent == y.Addr()) || (nd == y && gs.parent == x.Addr()))
			})
			if !fresh || cycle {
				ok = false
			}
		}
		return ok
	}, static("cycle never repaired"))

	// Payloads from the rendezvous now reach both.
	got := make(chan string, 4)
	for _, nd := range []*Node{x, y} {
		addr := nd.Addr()
		nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			select {
			case got <- addr:
			default:
			}
		})
	}
	if err := rdv.Publish("g", []byte("post-repair")); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	deadline := time.After(3 * time.Second)
	for len(seen) < 2 {
		select {
		case addr := <-got:
			seen[addr] = true
		case <-deadline:
			t.Fatalf("post-repair payload reached %d of 2", len(seen))
		}
	}
}
