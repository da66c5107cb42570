package node

import (
	"fmt"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/wire"
)

// TestBeaconRefreshesRootPath checks that rendezvous beacons flow down the
// tree, keep members fresh, and carry accurate root paths.
func TestBeaconRefreshesRootPath(t *testing.T) {
	cl := newDriven(t, 0, 1, nil)
	mk := func(seed int64) *Node {
		cfg := DefaultConfig(10, coords.Point{float64(seed), 0}, seed)
		cfg.HeartbeatInterval = 50 * time.Millisecond
		return cl.node(t, cfg)
	}
	a, b, c := mk(1), mk(2), mk(3)
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
	cl.Run(100 * time.Millisecond)
	if err := b.Join("g", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Join("g", time.Second); err != nil {
		t.Fatal(err)
	}
	// Within a few epochs the beacon must reach c with a correct root path.
	cl.waitFor(t, 3*time.Second, func() (ok bool) {
		c.post(func() {
			gs := c.groups["g"]
			// Root path starts at the rendezvous.
			ok = gs != nil && gs.parent != "" && c.now.Sub(gs.lastBeacon) <= time.Second &&
				len(gs.rootPath) >= 1 && gs.rootPath[0] == a.Addr()
		})
		return ok
	}, static("beacon never refreshed c's root path"))
}

// TestBeaconCycleDetection hand-builds a parent cycle between two nodes and
// verifies the beacon-staleness machinery tears it down and reattaches both
// to the real tree.
func TestBeaconCycleDetection(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	mk := func(seed int64) *Node {
		cfg := DefaultConfig(10, coords.Point{float64(seed), 0}, seed)
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.BeaconGraceEpochs = 4
		return c.node(t, cfg)
	}
	rdv, x, y := mk(1), mk(2), mk(3)
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
	c.Run(100 * time.Millisecond)

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
			gs.lastBeacon = nd.now.Add(-time.Hour) // already stale
		})
	}
	forceState(x, y.Addr(), y.Info())
	forceState(y, x.Addr(), x.Info())

	// The stale-beacon detach plus epoch rejoin must give both nodes real
	// paths to the rendezvous.
	c.waitFor(t, 5*time.Second, func() bool {
		ok := true
		for _, nd := range []*Node{x, y} {
			var fresh, cycle bool
			nd.post(func() {
				gs := nd.groups["g"]
				fresh = gs != nil && gs.parent != "" && nd.now.Sub(gs.lastBeacon) < time.Second
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
	seen := map[string]bool{}
	for _, nd := range []*Node{x, y} {
		addr := nd.Addr()
		nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { seen[addr] = true })
	}
	if err := rdv.Publish("g", []byte("post-repair")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 3*time.Second, func() bool { return len(seen) == 2 }, func() string {
		return fmt.Sprintf("post-repair payload reached %d of 2", len(seen))
	})
}

// TestStaleDetachLeavesOneGroup: a stale beacon detaches one group, and the
// leave it sends the parent names that group. The parent keeps the child
// as a neighbour and as its child in the other group, where an unscoped
// leave read as an overlay departure dropped it from both.
func TestStaleDetachLeavesOneGroup(t *testing.T) {
	c := newDriven(t, 2, 1, nil)
	parent, child := c.nodes[0], c.nodes[1]
	for _, g := range []string{"g1", "g2"} {
		if err := parent.CreateGroup(g); err != nil {
			t.Fatal(err)
		}
		if err := child.Join(g, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	child.post(func() {
		child.groups["g1"].lastBeacon = child.now.Add(-time.Hour)
		child.epoch(false)
	})
	c.Run(10 * time.Millisecond) // the leave lands
	if parent.NumNeighbors() != 1 {
		t.Fatalf("parent has %d neighbours after the child's stale detach in g1, want 1", parent.NumNeighbors())
	}
	if tv := parent.Tree("g2"); len(tv.Children) != 1 || tv.Children[0] != child.Addr() {
		t.Fatalf("parent's g2 children after the child's stale detach in g1: %v, want [%s]",
			tv.Children, child.Addr())
	}
}
