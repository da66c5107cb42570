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
	"groupcast/internal/peer"
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
	deadline := time.Now().Add(d)
	for runtime.NumGoroutine() > max {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d, want <= %d\n%s",
				runtime.NumGoroutine(), max, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
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

// cluster spins up n live nodes on one in-memory fabric, bootstrapping each
// through a random sample of earlier nodes.
type cluster struct {
	net   *transport.MemNetwork
	nodes []*Node
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

func newCluster(t *testing.T, n int, seed int64) *cluster {
	t.Helper()
	c := &cluster{net: transport.NewMemNetwork()}
	rng := rand.New(rand.NewSource(seed))
	sampler := peer.MustTable1Sampler()
	for i := 0; i < n; i++ {
		ep := c.net.NextEndpoint()
		coord := coords.Point{rng.Float64() * 200, rng.Float64() * 200}
		cfg := DefaultConfig(float64(sampler.Sample(rng)), coord, int64(i+1))
		cfg.HeartbeatInterval = 100 * time.Millisecond
		nd := New(ep, cfg)
		nd.Start()
		contacts := c.sampleAddrs(rng, 6)
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

func (c *cluster) sampleAddrs(rng *rand.Rand, k int) []string {
	if len(c.nodes) == 0 {
		return nil
	}
	perm := rng.Perm(len(c.nodes))
	if k > len(perm) {
		k = len(perm)
	}
	out := make([]string, 0, k)
	for _, idx := range perm[:k] {
		out = append(out, c.nodes[idx].Addr())
	}
	return out
}

func TestLifecycleErrors(t *testing.T) {
	net := transport.NewMemNetwork()
	nd := New(net.NextEndpoint(), DefaultConfig(10, nil, 1))
	if err := nd.Bootstrap(nil, time.Second); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("pre-start bootstrap err = %v", err)
	}
	nd.Start()
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
	net := transport.NewMemNetwork()
	a := New(net.NextEndpoint(), DefaultConfig(100, coords.Point{0, 0}, 1))
	b := New(net.NextEndpoint(), DefaultConfig(10, coords.Point{10, 10}, 2))
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	if err := a.Bootstrap(nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap([]string{a.Addr()}, testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, func() bool {
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
	waitFor(t, testTimeout, func() bool {
		return b.Join("chat", 200*time.Millisecond) == nil
	}, static("b could not join"))

	var mu sync.Mutex
	var got []string
	b.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, fmt.Sprintf("%s:%s", gid, data))
	})
	if err := a.Publish("chat", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}, static("payload not delivered"))
	mu.Lock()
	if got[0] != "chat:hello" {
		t.Fatalf("got %v", got)
	}
	mu.Unlock()

	// b publishes back: group communication is many-to-many.
	var aGot []string
	a.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		aGot = append(aGot, string(data))
	})
	if err := b.Publish("chat", []byte("hi back")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(aGot) == 1
	}, static("reverse payload not delivered"))
	if gs := b.Groups(); len(gs) != 1 || gs[0] != "chat" {
		t.Fatalf("b groups = %v", gs)
	}
}

func TestClusterGroupCommunication(t *testing.T) {
	const n = 40
	c := newCluster(t, n, 1)
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
	time.Sleep(100 * time.Millisecond) // let the announcement flood settle

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
	waitFor(t, testTimeout, func() bool { return treeSettled(c.nodes, "conf", members) },
		static("tree never settled"))

	var mu sync.Mutex
	delivered := make(map[string]int)
	for _, m := range members {
		addr := m.Addr()
		m.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
			mu.Lock()
			defer mu.Unlock()
			delivered[addr]++
		})
	}
	if err := rdv.Publish("conf", []byte("welcome")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) >= len(members)-1
	}, func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("payload reached %d of %d members", len(delivered), len(members)-1)
	})

	// No duplicates: spanning tree dissemination delivers exactly once.
	mu.Lock()
	for addr, count := range delivered {
		if count != 1 {
			t.Errorf("member %s received %d copies", addr, count)
		}
	}
	mu.Unlock()
}

func TestMemberPublishReachesAll(t *testing.T) {
	c := newCluster(t, 20, 2)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	// No settling sleep: a Join that the advertisement has not reached yet
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
	var mu sync.Mutex
	count := 0
	listeners := append([]*Node{rdv}, members[1:]...)
	for _, m := range listeners {
		m.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	}
	// The publish is best-effort and sent once, so it only reaches everyone
	// if the tree is complete when it leaves: wait for the cause, not a while.
	waitFor(t, testTimeout, func() bool { return treeSettled(c.nodes, "g", members) },
		static("a member's path to the rendezvous never settled"))
	if err := members[0].Publish("g", []byte("from member")); err != nil {
		t.Fatal(err)
	}
	want := len(members) // rdv + members except the publisher
	waitFor(t, testTimeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count >= want
	}, func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("member publish delivered %d of %d", count, want)
	})
}

func TestLeaveGroup(t *testing.T) {
	c := newCluster(t, 12, 3)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
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
	c := newCluster(t, 25, 4)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
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

	// Heartbeats (50ms interval, 2 missed) must evict the victim within a
	// few epochs everywhere.
	waitFor(t, 5*time.Second, func() bool {
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
	var mu sync.Mutex
	heard := map[string]bool{}
	for _, m := range members[1:] {
		addr := m.Addr()
		m.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			mu.Lock()
			heard[addr] = true
			mu.Unlock()
		})
	}
	want := (len(members) - 1) * 7 / 10 // at least 70% of survivors
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := rdv.Publish("g", []byte("after crash")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond)
		mu.Lock()
		got := len(heard)
		mu.Unlock()
		if got >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-crash payloads delivered to %d, want >= %d", got, want)
		}
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
		net := transport.NewMemNetwork()
		var contacts []string
		for i := 0; i < candidates; i++ {
			nd := New(net.NextEndpoint(), cfg(i))
			nd.Start()
			defer nd.Close()
			contacts = append(contacts, nd.Addr())
		}
		b := New(net.NextEndpoint(), cfg(candidates))
		b.Start()
		defer b.Close()
		if b.quota() >= candidates {
			t.Fatalf("quota %d leaves nothing to choose among %d candidates", b.quota(), candidates)
		}
		if err := b.Bootstrap(contacts, testTimeout); err != nil {
			t.Fatal(err)
		}
		waitFor(t, testTimeout, func() bool { return b.NumNeighbors() == b.quota() },
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
	c := newCluster(t, 5, 5)
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
	net := transport.NewMemNetwork()
	nd := New(net.NextEndpoint(), Config{
		Capacity:          -1,
		QuotaBase:         0,
		AdvertiseFraction: 5,
	})
	defer nd.Close()
	if nd.cfg.Capacity != 1 || nd.cfg.QuotaBase != 4 ||
		nd.cfg.AdvertiseFraction != 0.4 || nd.cfg.MissedHeartbeatsToFail != 2 {
		t.Fatalf("defaults not applied: %+v", nd.cfg)
	}
	if len(nd.Coord()) != 3 {
		t.Fatalf("default coord = %v", nd.Coord())
	}
}
