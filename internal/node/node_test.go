package node

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
// listed among its parent's Children (a Join returns when the joiner is
// attached; the relays above it may still be finishing theirs).
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
	c.waitFor(t, testTimeout, func() bool {
		return b.Join("chat", 200*time.Millisecond) == nil
	}, static("b could not join"))

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
	// A best-effort publish reaches only the tree as it stands, and a Join
	// returns before the relays above the joiner finish attaching.
	c.waitFor(t, testTimeout, func() bool { return treeSettled(c.nodes, "conf", members) },
		static("tree never settled"))

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
	// The publish is best-effort and sent once, so it only reaches everyone
	// if the tree is complete when it leaves: wait for the cause, not a while.
	c.waitFor(t, testTimeout, func() bool { return treeSettled(c.nodes, "g", members) },
		static("a member's path to the rendezvous never settled"))
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
		nd.cfg.BeaconGraceEpochs != 6 || nd.cfg.Deputies != 3 ||
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
