package node

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/peer"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// chaosCluster spins up n live nodes behind a shared chaos layer over one
// in-memory fabric.
type chaosCluster struct {
	chaos *transport.ChaosNetwork
	nodes []*Node
}

func newChaosCluster(t *testing.T, n int, seed int64, tweak func(*Config)) *chaosCluster {
	t.Helper()
	mem := transport.NewMemNetwork()
	c := &chaosCluster{chaos: transport.NewChaosNetwork(seed)}
	rng := rand.New(rand.NewSource(seed))
	sampler := peer.MustTable1Sampler()
	for i := 0; i < n; i++ {
		cfg := DefaultConfig(float64(sampler.Sample(rng)),
			coords.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(i+1))
		cfg.HeartbeatInterval = 100 * time.Millisecond
		cfg.BeaconGraceEpochs = 4
		if tweak != nil {
			tweak(&cfg)
		}
		nd := New(c.chaos.Wrap(mem.NextEndpoint()), cfg)
		nd.Start()
		var contacts []string
		for j := len(c.nodes) - 1; j >= 0 && len(contacts) < 5; j-- {
			contacts = append(contacts, c.nodes[j].Addr())
		}
		if err := nd.Bootstrap(contacts, testTimeout); err != nil {
			t.Fatalf("bootstrap node %d: %v", i, err)
		}
		c.nodes = append(c.nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			_ = nd.Close()
		}
	})
	return c
}

// TestBackupsPropagateDownTree verifies the dynamic-replication extension's
// live port: beacons and join acks hand every member backup access points
// outside its own subtree.
func TestBackupsPropagateDownTree(t *testing.T) {
	c := newChaosCluster(t, 8, 21, nil)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	for i, nd := range c.nodes[1:] {
		if err := nd.Join("g", testTimeout); err != nil {
			t.Fatalf("join node %d: %v", i+1, err)
		}
	}
	// With ≥2 members under the rendezvous, every member has at least one
	// sibling or grandparent to fall back to once beacons have flowed.
	waitFor(t, 5*time.Second, func() bool {
		for _, nd := range c.nodes[1:] {
			tv := nd.Tree("g")
			if !tv.Attached || len(tv.Backups) == 0 {
				return false
			}
			// A node must never be handed itself or its current parent as
			// a backup (the parent is what the backups insure against).
			for _, b := range tv.Backups {
				if b == nd.Addr() || b == tv.Parent {
					return false
				}
			}
		}
		return true
	}, static("backup access points never reached every member"))
}

// TestBackupFailoverOnParentCrash crash-stops the busiest tree parent and
// requires every orphan to reattach — with at least one repair going through
// a precomputed backup access point rather than a ripple search.
func TestBackupFailoverOnParentCrash(t *testing.T) {
	c := newChaosCluster(t, 12, 5, nil)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	var members []*Node
	for _, nd := range c.nodes[1:] {
		if err := nd.Join("g", testTimeout); err != nil {
			t.Fatal(err)
		}
		members = append(members, nd)
	}
	// The victim is the busiest parent; the tree is settled once every Join
	// has returned, so pick it first.
	victim := members[0]
	kids := -1
	for _, m := range members {
		if n := len(m.Tree("g").Children); n > kids {
			victim, kids = m, n
		}
	}
	// Beacons must hand the victim's children their backups before the
	// crash. Only they need one — and each always can get one, its
	// grandparent — whereas a rendezvous' only child has no candidate at all,
	// so requiring backups at every member hangs on such a tree.
	byAddr := make(map[string]*Node, len(members))
	for _, m := range members {
		byAddr[m.Addr()] = m
	}
	lacking := func() (out []string) {
		for _, child := range victim.Tree("g").Children {
			if m := byAddr[child]; m != nil && len(m.Tree("g").Backups) == 0 {
				out = append(out, child)
			}
		}
		return out
	}
	waitFor(t, 5*time.Second, func() bool { return len(lacking()) == 0 }, func() string {
		return fmt.Sprintf("backups never reached the victim's children %v", lacking())
	})
	c.chaos.Crash(victim.Addr())

	survivors := make([]*Node, 0, len(members)-1)
	for _, m := range members {
		if m != victim {
			survivors = append(survivors, m)
		}
	}
	waitFor(t, 15*time.Second, func() bool {
		for _, m := range survivors {
			tv := m.Tree("g")
			if !tv.Attached || tv.Parent == victim.Addr() {
				return false
			}
		}
		return true
	}, static("survivors never reattached off the crashed parent"))

	var viaBackup uint64
	for _, m := range survivors {
		viaBackup += m.Stats().RepairsViaBackup
	}
	if kids > 0 && viaBackup == 0 {
		t.Fatalf("no repair went through a backup access point (victim had %d children)", kids)
	}

	// The repaired tree must still deliver: publish until every survivor
	// hears at least one payload (the chaos layer injects no loss here, but
	// repairs may still be settling).
	var mu sync.Mutex
	got := make(map[string]int)
	for _, m := range survivors {
		addr := m.Addr()
		m.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			mu.Lock()
			got[addr]++
			mu.Unlock()
		})
	}
	waitFor(t, 10*time.Second, func() bool {
		_ = rdv.Publish("g", []byte("x"))
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		for _, m := range survivors {
			if got[m.Addr()] == 0 {
				return false
			}
		}
		return true
	}, static("repaired tree does not deliver to every survivor"))
}

// TestSearchOnlyRepairStillRecovers pins the fallback path: with backup
// failover disabled, a parent crash is repaired by ripple search alone.
func TestSearchOnlyRepairStillRecovers(t *testing.T) {
	c := newChaosCluster(t, 10, 9, func(cfg *Config) {
		cfg.DisableBackupFailover = true
	})
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	var members []*Node
	for _, nd := range c.nodes[1:] {
		if err := nd.Join("g", testTimeout); err != nil {
			t.Fatal(err)
		}
		members = append(members, nd)
	}
	victim := members[0]
	kids := -1
	for _, m := range members {
		if n := len(m.Tree("g").Children); n > kids {
			victim, kids = m, n
		}
	}
	c.chaos.Crash(victim.Addr())
	waitFor(t, 15*time.Second, func() bool {
		var viaBackup uint64
		for _, m := range members {
			if m == victim {
				continue
			}
			tv := m.Tree("g")
			if !tv.Attached || tv.Parent == victim.Addr() {
				return false
			}
			viaBackup += m.Stats().RepairsViaBackup
		}
		if viaBackup != 0 {
			t.Fatalf("backup failover ran despite being disabled (%d repairs)", viaBackup)
		}
		return true
	}, static("search-only repair never recovered"))
}

// TestRepairCostsNoGoroutine: a tree repair is a chain of calls in the
// loop's table, not a goroutine. The orphan below has only silent backups
// and silent search targets, so its repair runs for seconds; throughout it
// the node adds no goroutine beyond its loop.
func TestRepairCostsNoGoroutine(t *testing.T) {
	net := transport.NewMemNetwork()
	// Reachable but never read: every join and search sent there times out.
	var silent []*transport.MemEndpoint
	for i := 0; i < 5; i++ {
		ep := net.NextEndpoint()
		defer ep.Close()
		silent = append(silent, ep)
	}
	parent, backups, nbrs := silent[0], silent[1:3], silent[3:]
	baseline := settledGoroutines()

	cfg := DefaultConfig(10, nil, 1)
	cfg.HeartbeatInterval = 0
	cfg.DisableDHT = true
	n := New(net.NextEndpoint(), cfg)
	gs := newGroupState(wire.BestEffort)
	gs.member = true
	gs.parent = parent.Addr()
	for _, ep := range backups {
		gs.backups = append(gs.backups, wire.PeerInfo{Addr: ep.Addr()})
	}
	n.groups["g"] = gs
	for _, ep := range nbrs {
		n.neighbors[ep.Addr()] = &neighborState{info: wire.PeerInfo{Addr: ep.Addr()}, lastAck: time.Now()}
	}
	n.Start()
	defer n.Close()

	// The parent leaves the group: the orphan's repair tries both backups
	// (backupJoinTimeout each), then ripple-searches for 2s.
	if err := parent.Send(n.Addr(), wire.Message{
		Type: wire.TLeave, From: wire.PeerInfo{Addr: parent.Addr()}, GroupID: "g",
	}); err != nil {
		t.Fatal(err)
	}
	peak := 0
	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if g := runtime.NumGoroutine() - baseline; g > peak {
			peak = g
		}
	}
	if n.MetricsSnapshot().Gauges["pending_requests"] == 0 {
		t.Fatal("the repair is already over; the test needs it running")
	}
	if peak > 1 {
		t.Fatalf("the node ran up to %d goroutines during a repair, want 1 (the loop)", peak)
	}
}

// TestJoinRetriesThroughLoss pins joinVia's internal retry: the first join
// message is eaten by the network, the retry attaches the member anyway.
func TestJoinRetriesThroughLoss(t *testing.T) {
	c := newChaosCluster(t, 2, 3, nil)
	a, b := c.nodes[0], c.nodes[1]
	if err := a.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := a.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() (saw bool) {
		b.post(func() { _, saw = b.adSeen["g"] })
		return saw
	}, static("advertisement never arrived"))
	c.chaos.SetLinkRule(b.Addr(), a.Addr(), transport.LinkRule{DropFirst: 1})
	if err := b.Join("g", testTimeout); err != nil {
		t.Fatalf("join through a lossy link: %v", err)
	}
	if !b.Tree("g").Attached {
		t.Fatal("joined but not attached")
	}
	if b.Stats().Retries == 0 {
		t.Fatal("the dropped join was not retried")
	}
}

// TestBootstrapRetriesThroughLoss pins the bootstrap probe retry: the first
// probe to the only contact is eaten, the retry still finds the overlay.
func TestBootstrapRetriesThroughLoss(t *testing.T) {
	mem := transport.NewMemNetwork()
	chaos := transport.NewChaosNetwork(4)
	mk := func(seed int64) *Node {
		cfg := DefaultConfig(50, coords.Point{float64(seed), 0}, seed)
		cfg.HeartbeatInterval = 100 * time.Millisecond
		nd := New(chaos.Wrap(mem.NextEndpoint()), cfg)
		nd.Start()
		return nd
	}
	a := mk(1)
	defer a.Close()
	if err := a.Bootstrap(nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	b := mk(2)
	defer b.Close()
	chaos.SetLinkRule(b.Addr(), a.Addr(), transport.LinkRule{DropFirst: 1})
	if err := b.Bootstrap([]string{a.Addr()}, testTimeout); err != nil {
		t.Fatalf("bootstrap through a lossy link: %v", err)
	}
	if b.NumNeighbors() == 0 {
		t.Fatal("bootstrapped with no neighbours")
	}
	if b.Stats().Retries == 0 {
		t.Fatal("the dropped probe was not retried")
	}
}

// TestSuspectThenDead walks the failure detector's state machine: a silent
// neighbour turns suspect (extra mid-epoch probe, excluded from probe
// responses) and then dead once the full grace elapses.
func TestSuspectThenDead(t *testing.T) {
	c := newChaosCluster(t, 2, 6, nil)
	a, b := c.nodes[0], c.nodes[1]
	waitFor(t, 2*time.Second, func() bool { return a.NumNeighbors() == 1 && b.NumNeighbors() == 1 },
		static("nodes never became neighbours"))
	c.chaos.Crash(b.Addr())
	waitFor(t, 5*time.Second, func() bool { return a.Stats().Suspected >= 1 },
		static("silent neighbour never turned suspect"))
	waitFor(t, 5*time.Second, func() bool {
		return a.Stats().NeighborsDeclaredDead >= 1 && a.NumNeighbors() == 0
	}, static("suspect neighbour never escalated to dead"))
}

// TestSuspectRecovers pins the benign half of the state machine: a neighbour
// that misses one heartbeat but answers the mid-epoch re-probe is kept.
func TestSuspectRecovers(t *testing.T) {
	// A wide dead grace (11 intervals) separates the two thresholds so the
	// test exercises suspicion without racing the dead timer: the silence
	// is long enough to raise a suspect, nowhere near long enough to kill.
	c := newChaosCluster(t, 2, 8, func(cfg *Config) {
		cfg.MissedHeartbeatsToFail = 10
	})
	a, b := c.nodes[0], c.nodes[1]
	waitFor(t, 2*time.Second, func() bool { return a.NumNeighbors() == 1 },
		static("nodes never became neighbours"))
	c.chaos.Partition(b.Addr())
	waitFor(t, 3*time.Second, func() bool { return a.Stats().Suspected >= 1 },
		static("missed heartbeat never raised a suspicion"))
	c.chaos.Heal()
	// The healed neighbour answers the next probe or heartbeat and stays a
	// neighbour; nothing is declared dead.
	time.Sleep(500 * time.Millisecond)
	if a.NumNeighbors() != 1 || a.Stats().NeighborsDeclaredDead != 0 {
		t.Fatalf("recovered neighbour was dropped (neighbours = %d, dead = %d)",
			a.NumNeighbors(), a.Stats().NeighborsDeclaredDead)
	}
}

// TestBeaconSameSeedSameBackups: backup lists and beacon order do not depend
// on map order. Six children share one coordinate, so every sibling ties on
// distance; a rendezvous beacons three groups, and a relay forwards a beacon
// to its own six children. Repeated backup computations on one unchanged
// group, and two same-seed step-driven nodes, must agree exactly.
func TestBeaconSameSeedSameBackups(t *testing.T) {
	kids := func(gs *groupState, prefix string) {
		for i := 0; i < 6; i++ {
			addr := fmt.Sprintf("%s-%d", prefix, i)
			gs.children[addr] = wire.PeerInfo{Addr: addr, Capacity: 10, Coord: []float64{1, 1, 0}}
		}
	}
	build := func() []string {
		log := &sendLog{Transport: transport.NewMemNetwork().NextEndpoint()}
		cfg := DefaultConfig(10, nil, 7)
		cfg.Deputies = 2
		n := New(log, cfg)
		defer n.Close()
		var out []string
		stepAt(n, time.Now(), event{flow: func() {
			for _, gid := range []string{"g1", "g2", "g3"} {
				gs := newGroupState(wire.Reliable)
				gs.rendezvous, gs.member = true, true
				gs.rdvInfo, gs.epoch = n.self, 1
				kids(gs, gid)
				n.groups[gid] = gs
			}
			relay := newGroupState(wire.BestEffort)
			relay.parent = "up"
			kids(relay, "r")
			n.groups["r"] = relay

			first := fmt.Sprint(n.backupsForChild(n.groups["g1"], n.groups["g1"].children["g1-0"]))
			for i := 0; i < 50; i++ {
				if got := fmt.Sprint(n.backupsForChild(n.groups["g1"], n.groups["g1"].children["g1-0"])); got != first {
					t.Fatalf("call %d gave backups %s, the first gave %s", i, got, first)
				}
			}
			n.beaconGroups()
			n.handleBeacon(wire.Message{Type: wire.TBeacon, GroupID: "r",
				From: wire.PeerInfo{Addr: "up"}, Path: []string{"up"}, Epoch: 1})
		}})
		for _, s := range log.sent {
			if s.msg.Type == wire.TBeacon {
				out = append(out, fmt.Sprintf("%s>%s %v %v", s.msg.GroupID, s.to, addrsOf(s.msg.Backups), addrsOf(s.msg.Deputies)))
			}
		}
		return out
	}
	want := build()
	if len(want) != 24 {
		t.Fatalf("sent %d beacons, want 24: %v", len(want), want)
	}
	for run := 1; run <= 20; run++ {
		if got := build(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d beaconed otherwise:\n got %v\nwant %v", run, got, want)
		}
	}
}
