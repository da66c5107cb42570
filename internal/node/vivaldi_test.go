package node

import (
	"math"
	"testing"
	"time"

	"groupcast/internal/coords"
)

// TestVivaldiCoordinatesConverge checks that live nodes with Vivaldi enabled
// move their coordinates so estimated distances track the fabric's latency
// model.
func TestVivaldiCoordinatesConverge(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	// A latency model with real geometry: three nodes on a line,
	// v000 at 0, v001 at 40 ms, v002 at 80 ms (one-way half-RTT).
	pos := map[string]float64{"v000": 0, "v001": 40, "v002": 80}
	c.latency = func(from, to string) time.Duration {
		d := pos[from] - pos[to]
		if d < 0 {
			d = -d
		}
		return time.Duration(d/2) * time.Millisecond
	}

	for i := 0; i < 3; i++ {
		cfg := DefaultConfig(10, nil, int64(i+1))
		cfg.EnableVivaldi = true
		cfg.HeartbeatInterval = 20 * time.Millisecond
		contacts := nodeAddrs(c.nodes)
		if err := c.node(t, cfg).Bootstrap(contacts, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	nodes := c.nodes
	// Make the mesh complete so every pair heartbeats.
	_ = nodes[2].Bootstrap([]string{nodes[0].Addr(), nodes[1].Addr()}, 0)

	// Let heartbeats drive the spring model.
	c.waitFor(t, 10*time.Second, func() bool {
		d12 := coords.Dist(nodes[0].Coord(), nodes[1].Coord())
		d13 := coords.Dist(nodes[0].Coord(), nodes[2].Coord())
		// RTT(1,2) = 40ms, RTT(1,3) = 80ms; accept generous tolerances —
		// the point is that estimates order correctly and are in range.
		return d12 > 10 && d13 > d12 && math.Abs(d13-80) < 60
	}, static("Vivaldi coordinates did not converge"))

	for _, nd := range nodes {
		info := nd.Info()
		if info.CoordErr <= 0 || info.CoordErr > 1 {
			t.Fatalf("coordinate error estimate %v out of range", info.CoordErr)
		}
	}
}

// TestVivaldiDisabledKeepsStaticCoord ensures static coordinates never move.
func TestVivaldiDisabledKeepsStaticCoord(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	a := c.node(t, DefaultConfig(10, coords.Point{1, 2, 3}, 1))
	b := c.node(t, DefaultConfig(10, coords.Point{4, 5, 6}, 2))
	_ = a.Bootstrap(nil, time.Second)
	if err := b.Bootstrap([]string{a.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	got := a.Coord()
	want := coords.Point{1, 2, 3}
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("static coordinate moved: %v", got)
		}
	}
}

// TestBootstrapReentry verifies the Bootstrap re-entry used in the Vivaldi
// test is harmless (idempotent neighbour adds).
func TestBootstrapReentry(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	a := c.node(t, DefaultConfig(10, nil, 1))
	b := c.node(t, DefaultConfig(10, nil, 2))
	_ = a.Bootstrap(nil, time.Second)
	if err := b.Bootstrap([]string{a.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	before := b.NumNeighbors()
	if err := b.Bootstrap([]string{a.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	if b.NumNeighbors() < before {
		t.Fatal("re-bootstrap lost neighbours")
	}
}

// TestAdvertiseRefreshReachesLateJoiners verifies that a rendezvous with
// periodic advertisement refresh gives overlay latecomers a reverse path
// without any manual re-announcement.
func TestAdvertiseRefreshReachesLateJoiners(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	cfg := func(coord coords.Point, seed int64) Config {
		cfg := DefaultConfig(10, coord, seed)
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.AdvertiseRefreshEpochs = 2
		return cfg
	}
	for i := 0; i < 6; i++ {
		contacts := nodeAddrs(c.nodes)
		if err := c.node(t, cfg(coords.Point{float64(i), 0}, int64(i+1))).Bootstrap(contacts, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	nodes := c.nodes
	rdv := nodes[0]
	if err := rdv.CreateGroup("late"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("late"); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)

	// A latecomer joins the overlay after the original announcement. Its
	// coordinate sits inside the cluster: a far-away peer would be scored
	// down by every neighbour's distance preference and might legitimately
	// never be selected for SSA forwarding.
	late := c.node(t, cfg(coords.Point{2.5, 0.5}, 99))
	if err := late.Bootstrap([]string{nodes[1].Addr(), nodes[2].Addr()}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Within a few refresh epochs the advertisement must reach it, making a
	// reverse-path join possible (search fallback exists anyway; check the
	// adSeen state directly to prove the refresh happened).
	c.waitFor(t, 5*time.Second, func() (saw bool) {
		late.post(func() { _, saw = late.adSeen["late"] })
		return saw
	}, static("refresh never reached the latecomer"))
	if err := late.Join("late", 2*time.Second); err != nil {
		t.Fatalf("latecomer join: %v", err)
	}
}
