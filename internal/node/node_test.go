package node

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

const testTimeout = 3 * time.Second

// waitFor polls cond until it holds or the deadline passes. what is
// evaluated at the timeout, not at the call, so it reports the state the
// test actually died in.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", what())
}

// static is a waitFor message with nothing to evaluate.
func static(msg string) func() string { return func() string { return msg } }

// waitGoroutines polls until the process runs at most max goroutines, and
// fails with a dump of every stack if that does not happen within d.
func waitGoroutines(t *testing.T, max int, d time.Duration) {
	t.Helper()
	waitFor(t, d, func() bool { return runtime.NumGoroutine() <= max }, func() string {
		buf := make([]byte, 1<<20)
		return fmt.Sprintf("goroutines: %d, want <= %d\n%s",
			runtime.NumGoroutine(), max, buf[:runtime.Stack(buf, true)])
	})
}

// settledGoroutines returns the goroutine count once goroutines of earlier
// tests have finished exiting (two equal samples 10ms apart, or 500ms).
func settledGoroutines() int {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		g := runtime.NumGoroutine()
		if g == baseline {
			break
		}
		baseline = g
	}
	return baseline
}

// live is the one wall-clock harness, for the tests that need running
// loops: goroutine and leak counts, and races against a live loop. Its
// nodes are configured and bootstrapped as newDriven's are, on a
// MemNetwork behind one chaos layer.
type live struct {
	mem   *transport.MemNetwork
	chaos *transport.ChaosNetwork
	rng   *rand.Rand
	nodes []*Node
}

func newLive(t *testing.T, n int, seed int64, tweak func(*Config)) *live {
	t.Helper()
	c := &live{
		mem:   transport.NewMemNetwork(),
		chaos: transport.NewChaosNetwork(seed),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < n; i++ {
		c.add(t, harnessConfig(c.rng, i, tweak), newest(c.nodes, 5))
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			_ = nd.Close()
		}
	})
	return c
}

// add starts one more live node and bootstraps it through contacts.
func (c *live) add(t testing.TB, cfg Config, contacts []string) *Node {
	t.Helper()
	nd := New(c.chaos.Wrap(c.mem.NextEndpoint()), cfg)
	nd.Start()
	if err := nd.Bootstrap(contacts, testTimeout); err != nil {
		t.Fatalf("bootstrap %s: %v", nd.Addr(), err)
	}
	c.nodes = append(c.nodes, nd)
	return nd
}

// treeSettled reports whether every member's path to the rendezvous stands
// at both ends of every link and stays inside nodes: each hop Attached and
// listed among its parent's Children. A Join returns on such a path; the
// tests that wait for a heal wait for this.
func treeSettled(nodes []*Node, gid string, members []*Node) bool {
	byAddr := make(map[string]*Node, len(nodes))
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	for _, m := range members {
		nd := m
		for hops := 0; !nd.Tree(gid).Rendezvous; hops++ {
			tv := nd.Tree(gid)
			parent := byAddr[tv.Parent]
			if !tv.Attached || parent == nil || hops > len(nodes) {
				return false
			}
			listed := false
			for _, child := range parent.Tree(gid).Children {
				listed = listed || child == nd.Addr()
			}
			if !listed {
				return false
			}
			nd = parent
		}
	}
	return true
}

func TestLifecycleErrors(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	ep, err := c.Endpoint("solo")
	if err != nil {
		t.Fatal(err)
	}
	nd := New(ep, DefaultConfig(10, nil, 1))
	if err := nd.Bootstrap(nil, time.Second); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("pre-start bootstrap err = %v", err)
	}
	c.Start(nd)
	nd.Start() // idempotent
	if err := nd.Bootstrap(nil, time.Second); err != nil {
		t.Fatalf("empty bootstrap: %v", err)
	}
	if err := nd.Publish("g", nil); !errors.Is(err, ErrNotMember) {
		t.Fatalf("publish err = %v", err)
	}
	if err := nd.Leave("g"); !errors.Is(err, ErrNoGroup) {
		t.Fatalf("leave err = %v", err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if err := nd.CreateGroup("g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v", err)
	}
}

func TestTwoNodeGroup(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	a := c.node(t, DefaultConfig(100, coords.Point{0, 0}, 1))
	b := c.node(t, DefaultConfig(10, coords.Point{10, 10}, 2))
	if err := a.Bootstrap(nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap([]string{a.Addr()}, testTimeout); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, testTimeout, func() bool {
		return a.NumNeighbors() >= 1 && b.NumNeighbors() >= 1
	}, static("nodes did not connect"))

	if err := a.CreateGroup("chat"); err != nil {
		t.Fatal(err)
	}
	if err := a.CreateGroup("chat"); err == nil {
		t.Fatal("duplicate group accepted")
	}
	if err := a.Advertise("chat"); err != nil {
		t.Fatal(err)
	}
	if err := b.Advertise("chat"); err == nil {
		t.Fatal("non-rendezvous advertised")
	}
	if err := b.Join("chat", testTimeout); err != nil {
		t.Fatalf("b could not join: %v", err)
	}

	var got []string
	b.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
		got = append(got, fmt.Sprintf("%s:%s", gid, data))
	})
	if err := a.Publish("chat", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, testTimeout, func() bool { return len(got) == 1 }, static("payload not delivered"))
	if got[0] != "chat:hello" {
		t.Fatalf("got %v", got)
	}

	// b publishes back: group communication is many-to-many.
	var aGot []string
	a.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
		aGot = append(aGot, string(data))
	})
	if err := b.Publish("chat", []byte("hi back")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, testTimeout, func() bool { return len(aGot) == 1 }, static("reverse payload not delivered"))
	if gs := b.Groups(); len(gs) != 1 || gs[0] != "chat" {
		t.Fatalf("b groups = %v", gs)
	}
}

func TestClusterGroupCommunication(t *testing.T) {
	const n = 40
	c := newDriven(t, n, 1, nil)
	// Every node must be connected.
	for i, nd := range c.nodes {
		if nd.NumNeighbors() == 0 {
			t.Fatalf("node %d isolated", i)
		}
	}
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("conf"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("conf"); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond) // let the announcement flood settle

	// Half the nodes join (search fallback covers those the ad missed).
	members := []*Node{rdv}
	joined := 0
	for i := 1; i < n; i += 2 {
		if err := c.nodes[i].Join("conf", time.Second); err == nil {
			members = append(members, c.nodes[i])
			joined++
		}
	}
	if joined < n/2-4 {
		t.Fatalf("only %d of %d joined", joined, n/2)
	}
	// No wait for the tree: a Join returns on a path to the root, so a
	// best-effort publish sent now reaches every member.
	delivered := make(map[string]int)
	for _, m := range members {
		addr := m.Addr()
		m.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
			delivered[addr]++
		})
	}
	if err := rdv.Publish("conf", []byte("welcome")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, testTimeout, func() bool { return len(delivered) >= len(members)-1 }, func() string {
		return fmt.Sprintf("payload reached %d of %d members", len(delivered), len(members)-1)
	})

	// No duplicates: spanning tree dissemination delivers exactly once.
	for addr, count := range delivered {
		if count != 1 {
			t.Errorf("member %s received %d copies", addr, count)
		}
	}
}

func TestMemberPublishReachesAll(t *testing.T) {
	c := newDriven(t, 20, 2, nil)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	// No settling run: a Join that the advertisement has not reached yet
	// resolves the group through the DHT or the ripple search.
	var members []*Node
	for i := 1; i < 10; i++ {
		if err := c.nodes[i].Join("g", time.Second); err == nil {
			members = append(members, c.nodes[i])
		}
	}
	if len(members) < 5 {
		t.Fatalf("only %d members", len(members))
	}
	count := 0
	listeners := append([]*Node{rdv}, members[1:]...)
	for _, m := range listeners {
		m.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { count++ })
	}
	// The publish is best-effort and sent once, so it reaches everyone only
	// because every Join returned on a path to the root.
	if err := members[0].Publish("g", []byte("from member")); err != nil {
		t.Fatal(err)
	}
	want := len(members) // rdv + members except the publisher
	c.waitFor(t, testTimeout, func() bool { return count >= want }, func() string {
		return fmt.Sprintf("member publish delivered %d of %d", count, want)
	})
}

func TestLeaveGroup(t *testing.T) {
	c := newDriven(t, 12, 3, nil)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	m := c.nodes[5]
	if err := m.Join("g", time.Second); err != nil {
		t.Skip("join failed on this topology")
	}
	if err := m.Leave("g"); err != nil {
		t.Fatal(err)
	}
	if len(m.Groups()) != 0 {
		t.Fatal("still a member after leave")
	}
	// Publishing after leaving fails.
	if err := m.Publish("g", nil); !errors.Is(err, ErrNotMember) {
		t.Fatalf("publish after leave err = %v", err)
	}
}

func TestCrashDetectionAndTreeRepair(t *testing.T) {
	c := newDriven(t, 25, 4, nil)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	var members []*Node
	for i := 1; i < 25; i++ {
		if err := c.nodes[i].Join("g", time.Second); err == nil {
			members = append(members, c.nodes[i])
		}
	}
	if len(members) < 10 {
		t.Fatalf("only %d members", len(members))
	}
	// Crash a member abruptly (no leave notice): close its transport only.
	victim := members[0]
	_ = victim.tr.Close()

	// Heartbeats (100ms interval, 2 missed) must evict the victim within a
	// few epochs everywhere.
	c.waitFor(t, 5*time.Second, func() bool {
		for _, nd := range c.nodes {
			if nd == victim {
				continue
			}
			for _, nb := range nd.Neighbors() {
				if nb.Addr == victim.Addr() {
					return false
				}
			}
		}
		return true
	}, static("victim still a neighbour somewhere"))

	// Payloads still reach surviving members (their trees repaired). Tree
	// healing is asynchronous, so keep publishing fresh payloads and require
	// most survivors to hear at least one — a single early publish can
	// legitimately be lost while subtrees are still reattaching.
	heard := map[string]bool{}
	for _, m := range members[1:] {
		addr := m.Addr()
		m.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { heard[addr] = true })
	}
	want := (len(members) - 1) * 7 / 10 // at least 70% of survivors
	for deadline := c.Now().Add(10 * time.Second); len(heard) < want; {
		if c.Now().After(deadline) {
			t.Fatalf("post-crash payloads delivered to %d, want >= %d", len(heard), want)
		}
		if err := rdv.Publish("g", []byte("after crash")); err != nil {
			t.Fatal(err)
		}
		c.Run(300 * time.Millisecond)
	}
}

// TestIsolatedNodeBootstrapsAgain: a member cut off for longer than the
// overlay's death grace declares every neighbour dead, and every neighbour
// declares it dead. After the heal it must join the overlay again through
// the neighbours it lost, and its group through them: within a few epochs
// it has a neighbour and a root path that begins at the rendezvous.
func TestIsolatedNodeBootstrapsAgain(t *testing.T) {
	c := newDriven(t, 10, 7, nil)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	c.Run(150 * time.Millisecond)
	for _, nd := range c.nodes[1:] {
		if err := nd.Join("g", testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// A deputy would promote itself during the split; the victim is the
	// last member outside the succession roster.
	var victim *Node
	c.waitFor(t, time.Second, func() bool { return len(rdv.Tree("g").Deputies) > 0 },
		static("the root replicated no charter"))
	for _, nd := range c.nodes[1:] {
		if !slices.Contains(rdv.Tree("g").Deputies, nd.Addr()) {
			victim = nd
		}
	}
	c.chaos.Partition(victim.Addr())
	// 100 ms heartbeats and 2 missed to fail: 1 s is over three graces.
	c.waitFor(t, 5*time.Second, func() bool { return victim.NumNeighbors() == 0 },
		static("the isolated member kept a neighbour"))
	c.Run(time.Second)
	c.chaos.Heal()
	rootPath := func() []string {
		for _, td := range victim.TreeDetails() {
			if td.Group == "g" {
				return td.RootPath
			}
		}
		return nil
	}
	c.waitFor(t, time.Second, func() bool {
		rp := rootPath()
		return victim.NumNeighbors() > 0 && len(rp) > 0 && rp[0] == rdv.Addr()
	}, func() string {
		return fmt.Sprintf("after the heal: %d neighbours, root path %v", victim.NumNeighbors(), rootPath())
	})
}

// TestBootstrapSameSeedSameNeighbors: neighbour selection draws from the
// node's seeded rng in candidate order, so that order must not be map
// order. Identical fabrics with a same-seed bootstrapper and more candidates
// than its quota must end with the same neighbours, every time.
func TestBootstrapSameSeedSameNeighbors(t *testing.T) {
	const candidates = 12
	cfg := func(i int) Config {
		cfg := DefaultConfig(10, coords.Point{float64(i), float64(i * i % 7)}, int64(i+1))
		cfg.HeartbeatInterval = 0
		cfg.DisableDHT = true
		cfg.FallbackAccept = 1 // every request accepted: the pick alone decides
		return cfg
	}
	pick := func() string {
		c := newDriven(t, 0, 1, nil)
		var contacts []string
		for i := 0; i < candidates; i++ {
			contacts = append(contacts, c.node(t, cfg(i)).Addr())
		}
		b := c.node(t, cfg(candidates))
		if b.quota() >= candidates {
			t.Fatalf("quota %d leaves nothing to choose among %d candidates", b.quota(), candidates)
		}
		if err := b.Bootstrap(contacts, testTimeout); err != nil {
			t.Fatal(err)
		}
		c.waitFor(t, testTimeout, func() bool { return b.NumNeighbors() == b.quota() },
			static("not every chosen candidate accepted"))
		var addrs []string
		for _, nb := range b.Neighbors() {
			addrs = append(addrs, nb.Addr)
		}
		sort.Strings(addrs)
		return fmt.Sprint(addrs)
	}
	want := pick()
	for rep := 1; rep < 20; rep++ {
		if got := pick(); got != want {
			t.Fatalf("repetition %d picked %s, the first picked %s", rep, got, want)
		}
	}
}

func TestJoinUnknownGroupFails(t *testing.T) {
	c := newDriven(t, 5, 5, nil)
	err := c.nodes[1].Join("nonexistent", 200*time.Millisecond)
	if !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("err = %v, want ErrJoinFailed", err)
	}
}

// cutOffJoiner floods group "g" over 12 driven nodes with 10 s heartbeats
// (no epoch runs during a join) and the DHT off, then cuts off a node that
// holds the advertisement: every link out of it drops all it sends, so its
// joins time out on the advertisement path and in the ripple search alike.
// heal restores its links.
func cutOffJoiner(t *testing.T) (c *driven, joiner *Node, heal func()) {
	c = newDriven(t, 12, 3, func(cfg *Config) {
		cfg.HeartbeatInterval = 10 * time.Second
		cfg.DisableDHT = true
	})
	if err := c.nodes[0].CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[0].Advertise("g"); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	for _, nd := range c.nodes[1:] {
		var saw bool
		if nd.post(func() { _, saw = nd.adSeen["g"] }); saw {
			joiner = nd
			break
		}
	}
	if joiner == nil {
		t.Fatal("the advertisement reached no node")
	}
	links := func(rule transport.LinkRule) {
		for _, other := range c.nodes {
			c.chaos.SetLinkRule(joiner.Addr(), other.Addr(), rule)
		}
	}
	links(transport.LinkRule{Drop: 1})
	return c, joiner, func() { links(transport.LinkRule{}) }
}

// TestJoinKeepsItsDeadline: with every route timing out, Join gives up by
// its deadline, not once the advertisement path and the ripple search have
// each taken the whole of it.
func TestJoinKeepsItsDeadline(t *testing.T) {
	c, joiner, _ := cutOffJoiner(t)
	start := c.Now()
	if err := joiner.Join("g", time.Second); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("err = %v, want ErrJoinFailed", err)
	}
	if took := c.Now().Sub(start); took > time.Second {
		t.Fatalf("Join(g, 1s) returned after %v of virtual time", took)
	}
}

// TestFailedJoinLeavesNoMember: a failed Join leaves the node a non-member,
// so once its links heal the epoch loop does not join the group behind the
// caller's back as a repair.
func TestFailedJoinLeavesNoMember(t *testing.T) {
	c, joiner, heal := cutOffJoiner(t)
	if err := joiner.Join("g", time.Second); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("err = %v, want ErrJoinFailed", err)
	}
	if tv := joiner.Tree("g"); tv.Member {
		t.Fatalf("member after a failed Join: %+v", tv)
	}
	heal()
	c.Run(25 * time.Second)
	st := joiner.Stats()
	if tv := joiner.Tree("g"); tv.Member || tv.Attached || st.RepairsViaSearch+st.RepairsViaBackup > 0 {
		t.Fatalf("the group came back with no Join: %+v, %d repairs via search, %d via backup",
			tv, st.RepairsViaSearch, st.RepairsViaBackup)
	}
}

// TestJoinWhileAdvertisementInFlight: a Join issued as the rendezvous
// starts its flood, five hops out on a line with the DHT off, misses with
// its first ripple search; the one call still succeeds, through the
// advertisement that arrived meanwhile. Each forwarder on the line held the
// join until its own ack came down, so when Join returns every one of them
// has a root path from the rendezvous and a publish sent at once arrives.
func TestJoinWhileAdvertisementInFlight(t *testing.T) {
	c := newDriven(t, 0, 9, nil)
	var nodes []*Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, c.node(t, harnessConfig(c.rng, i, func(cfg *Config) { cfg.DisableDHT = true })))
		if i > 0 { // wired by hand: Bootstrap would link contacts' neighbours too
			a, b := nodes[i-1], nodes[i]
			a.post(func() { a.addNeighbor(b.self) })
			b.post(func() { b.addNeighbor(a.self) })
		}
	}
	if err := nodes[0].CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Advertise("g"); err != nil {
		t.Fatal(err)
	}
	if err := nodes[5].Join("g", testTimeout); err != nil {
		t.Fatalf("one Join while the advertisement was in flight: %v", err)
	}
	if tv := nodes[5].Tree("g"); !tv.Member || !tv.Attached {
		t.Fatalf("joined but %+v", tv)
	}
	for i, nd := range nodes[1:5] {
		if td := nd.TreeDetails(); len(td) != 1 || len(td[0].RootPath) == 0 || td[0].RootPath[0] != nodes[0].Addr() {
			t.Fatalf("forwarder %d's tree when the Join returned: %+v, want a root path from %s",
				i+1, td, nodes[0].Addr())
		}
	}
	got := 0
	nodes[5].SetPayloadHandler(func(string, wire.PeerInfo, []byte) { got++ })
	if err := nodes[0].Publish("g", []byte("at once")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, testTimeout, func() bool { return got == 1 }, static("the publish sent as Join returned never arrived"))
}

func TestNodeOverTCP(t *testing.T) {
	var nodes []*Node
	for i := 0; i < 5; i++ {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(float64(10*(i+1)), coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 100 * time.Millisecond
		nd := New(tr, cfg)
		nd.Start()
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, testTimeout); err != nil {
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
	if err := rdv.CreateGroup("tcp-demo"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("tcp-demo"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	var mu sync.Mutex
	count := 0
	joined := 0
	for _, nd := range nodes[1:] {
		if err := nd.Join("tcp-demo", time.Second); err != nil {
			continue
		}
		joined++
		nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	}
	if joined < 3 {
		t.Fatalf("only %d joined over TCP", joined)
	}
	if err := rdv.Publish("tcp-demo", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count >= joined
	}, static("TCP payload delivery incomplete"))
}

func TestNewAppliesDefaults(t *testing.T) {
	nd := New(stubEndpoint(), Config{
		Capacity:          -1,
		QuotaBase:         0,
		AdvertiseFraction: 5,
	})
	defer nd.Close()
	if nd.cfg.Capacity != 1 || nd.cfg.QuotaBase != 4 ||
		nd.cfg.AdvertiseFraction != 0.4 || nd.cfg.MissedHeartbeatsToFail != 2 ||
		nd.cfg.BeaconGraceEpochs != 6 || nd.cfg.Deputies != 0 ||
		nd.cfg.OverloadSampleInterval != 100*time.Millisecond || nd.cfg.TelemetryGossip != 1 {
		t.Fatalf("defaults not applied: %+v", nd.cfg)
	}
	// The quota grows by 2 per decade of capacity: base 4 at capacity 1, 8
	// at 100.
	if q := nd.quota(); q != 4 {
		t.Fatalf("quota at capacity 1 = %d, want 4", q)
	}
	nd.cfg.Capacity = 100
	if q := nd.quota(); q != 8 {
		t.Fatalf("quota at capacity 100 = %d, want 8", q)
	}
	if len(nd.Coord()) != 3 {
		t.Fatalf("default coord = %v", nd.Coord())
	}
}
