package node

import (
	"math"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
)

// TestVivaldiCoordinatesConverge checks that live nodes with Vivaldi enabled
// move their coordinates so estimated distances track the fabric's latency
// model.
func TestVivaldiCoordinatesConverge(t *testing.T) {
	net := transport.NewMemNetwork()
	// A latency model with real geometry: three nodes on a line,
	// mem-1 at 0, mem-2 at 40 ms, mem-3 at 80 ms (one-way half-RTT).
	pos := map[string]float64{"mem-1": 0, "mem-2": 40, "mem-3": 80}
	net.SetLatency(func(from, to string) time.Duration {
		d := pos[from] - pos[to]
		if d < 0 {
			d = -d
		}
		return time.Duration(d/2) * time.Millisecond
	})

	var nodes []*Node
	for i := 0; i < 3; i++ {
		cfg := DefaultConfig(10, nil, int64(i+1))
		cfg.EnableVivaldi = true
		cfg.HeartbeatInterval = 20 * time.Millisecond
		nd := New(net.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	// Make the mesh complete so every pair heartbeats.
	_ = nodes[2].Bootstrap([]string{nodes[0].Addr(), nodes[1].Addr()}, 0)

	// Let heartbeats drive the spring model.
	waitFor(t, 10*time.Second, func() bool {
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
	net := transport.NewMemNetwork()
	a := New(net.NextEndpoint(), DefaultConfig(10, coords.Point{1, 2, 3}, 1))
	b := New(net.NextEndpoint(), DefaultConfig(10, coords.Point{4, 5, 6}, 2))
	for _, nd := range []*Node{a, b} {
		nd.Start()
	}
	defer a.Close()
	defer b.Close()
	_ = a.Bootstrap(nil, time.Second)
	if err := b.Bootstrap([]string{a.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	got := a.Coord()
	want := coords.Point{1, 2, 3}
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("static coordinate moved: %v", got)
		}
	}
}

// TestBootstrapDoubleCannotJoinTwice verifies the Bootstrap re-entry used in
// the Vivaldi test is harmless (idempotent neighbour adds).
func TestBootstrapReentry(t *testing.T) {
	net := transport.NewMemNetwork()
	a := New(net.NextEndpoint(), DefaultConfig(10, nil, 1))
	b := New(net.NextEndpoint(), DefaultConfig(10, nil, 2))
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
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
	net := transport.NewMemNetwork()
	var nodes []*Node
	for i := 0; i < 6; i++ {
		cfg := DefaultConfig(10, coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.AdvertiseRefreshEpochs = 2
		nd := New(net.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	rdv := nodes[0]
	if err := rdv.CreateGroup("late"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("late"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	// A latecomer joins the overlay after the original announcement. Its
	// coordinate sits inside the cluster: a far-away peer would be scored
	// down by every neighbour's distance preference and might legitimately
	// never be selected for SSA forwarding.
	cfg := DefaultConfig(10, coords.Point{2.5, 0.5}, 99)
	cfg.HeartbeatInterval = 50 * time.Millisecond
	late := New(net.NextEndpoint(), cfg)
	late.Start()
	defer late.Close()
	if err := late.Bootstrap([]string{nodes[1].Addr(), nodes[2].Addr()}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Within a few refresh epochs the advertisement must reach it, making a
	// reverse-path join possible (search fallback exists anyway; check the
	// adSeen state directly to prove the refresh happened).
	waitFor(t, 5*time.Second, func() (saw bool) {
		late.post(func() { _, saw = late.adSeen["late"] })
		return saw
	}, static("refresh never reached the latecomer"))
	if err := late.Join("late", 2*time.Second); err != nil {
		t.Fatalf("latecomer join: %v", err)
	}
}
