package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/peer"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// driven is a cluster of nodes in virtual time behind one chaos layer, built
// the way newChaosCluster builds a live one: Table 1 capacities, coordinates
// on a 100×100 plane, 100 ms heartbeats, and each node bootstrapping
// through the five it follows. Every link takes linkLatency.
type driven struct {
	*Cluster
	chaos *transport.ChaosNetwork
	rng   *rand.Rand
	nodes []*Node
}

const linkLatency = time.Millisecond

func newDriven(t testing.TB, n int, seed int64, tweak func(*Config)) *driven {
	t.Helper()
	c := &driven{
		Cluster: NewCluster(func(string, string) time.Duration { return linkLatency }),
		chaos:   transport.NewChaosNetwork(seed),
		rng:     rand.New(rand.NewSource(seed)),
	}
	sampler := peer.MustTable1Sampler()
	for i := 0; i < n; i++ {
		cfg := DefaultConfig(float64(sampler.Sample(c.rng)),
			coords.Point{c.rng.Float64() * 100, c.rng.Float64() * 100}, int64(i+1))
		cfg.HeartbeatInterval = 100 * time.Millisecond
		cfg.BeaconGraceEpochs = 4
		if tweak != nil {
			tweak(&cfg)
		}
		var contacts []string
		for j := len(c.nodes) - 1; j >= 0 && len(contacts) < 5; j-- {
			contacts = append(contacts, c.nodes[j].Addr())
		}
		c.add(t, cfg, contacts)
	}
	return c
}

// add starts one more node and bootstraps it through contacts.
func (c *driven) add(t testing.TB, cfg Config, contacts []string) *Node {
	t.Helper()
	ep, err := c.Endpoint(fmt.Sprintf("v%03d", len(c.nodes)))
	if err != nil {
		t.Fatal(err)
	}
	nd := New(c.chaos.Wrap(ep), cfg)
	c.Start(nd)
	if err := nd.Bootstrap(contacts, testTimeout); err != nil {
		t.Fatalf("bootstrap %s: %v", nd.Addr(), err)
	}
	c.nodes = append(c.nodes, nd)
	return nd
}

// waitFor is waitFor in virtual time: it runs the cluster in 5 ms steps
// until cond holds, and fails once d of virtual time has passed.
func (c *driven) waitFor(t *testing.T, d time.Duration, cond func() bool, what func() string) {
	t.Helper()
	deadline := c.Now().Add(d)
	for !cond() {
		if !c.Now().Before(deadline) {
			t.Fatalf("timeout after %v of virtual time: %s", d, what())
		}
		c.Run(5 * time.Millisecond)
	}
}

// joinEventually is joinEventually in virtual time: Join, retried 50 ms
// apart until it succeeds or within has passed.
func (c *driven) joinEventually(t *testing.T, nd *Node, gid string, within time.Duration) {
	t.Helper()
	var last error
	for deadline := c.Now().Add(within); c.Now().Before(deadline); c.Run(50 * time.Millisecond) {
		if last = nd.Join(gid, time.Second); last == nil {
			return
		}
	}
	t.Fatalf("join %q never succeeded: %v", gid, last)
}

// TestClusterRunsNodesInVirtualTime: nodes on a cluster bootstrap, join and
// deliver on the caller's goroutine, and only Run moves the clock.
func TestClusterRunsNodesInVirtualTime(t *testing.T) {
	c := newDriven(t, 6, 3, nil)
	rdv := c.nodes[0]
	if err := rdv.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	c.Run(20 * time.Millisecond)
	var got []string
	for _, nd := range c.nodes[1:] {
		if err := nd.Join("g", testTimeout); err != nil {
			t.Fatalf("join %s: %v", nd.Addr(), err)
		}
		addr := nd.Addr()
		nd.SetPayloadHandler(func(_ string, _ wire.PeerInfo, data []byte) {
			got = append(got, addr+":"+string(data))
		})
	}
	before := c.Now()
	if err := rdv.Publish("g", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || !c.Now().Equal(before) {
		t.Fatalf("a publish ran the heap: %d deliveries, clock moved %v", len(got), c.Now().Sub(before))
	}
	c.Run(50 * time.Millisecond)
	if len(got) != len(c.nodes)-1 {
		t.Fatalf("%d deliveries, want %d: %v", len(got), len(c.nodes)-1, got)
	}
	if c.Now().Sub(before) != 50*time.Millisecond {
		t.Fatalf("Run(50ms) moved the clock %v", c.Now().Sub(before))
	}
}

// TestClusterSameSeedSameTrace is the driver's determinism gate: a seeded
// 200-node cluster — bootstrap, join, publish, a root crash, a promotion,
// two members leaving and a publish under the successor — records
// byte-identical NDJSON traces on two runs. A map walk that decides a send or an rng draw shows up here
// as a diff.
func TestClusterSameSeedSameTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("200-node cluster")
	}
	run := func() []byte {
		var buf bytes.Buffer
		sink := trace.NewNDJSON(&buf)
		c := newDriven(t, 200, 41, func(cfg *Config) {
			cfg.Tracer = trace.New(64, sink)
			// No DHT and no announcement before the joins: each join
			// floods a ripple search, whose asks and forwards would
			// differ run to run in map order.
			cfg.DisableDHT = true
		})
		const gid = "g"
		rdv := c.nodes[0]
		if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
			t.Fatal(err)
		}
		var members []*Node
		for i := 1; i < len(c.nodes); i += 7 {
			members = append(members, c.nodes[i])
		}
		for _, nd := range members {
			if err := nd.Join(gid, testTimeout); err != nil {
				t.Fatalf("join %s: %v", nd.Addr(), err)
			}
			nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {})
		}
		c.waitFor(t, 2*time.Second, func() bool {
			for _, nd := range members {
				if holdsCharter(nd, gid) {
					return true
				}
			}
			return false
		}, static("no deputy received the charter"))
		pub := members[len(members)-1]
		for i := 0; i < 5; i++ {
			_ = pub.Publish(gid, []byte(fmt.Sprintf("p%d", i)))
			c.Run(10 * time.Millisecond)
		}
		c.chaos.Crash(rdv.Addr())
		survivors := c.nodes[1:]
		c.waitFor(t, 3*time.Second, func() bool { return singleRoot(survivors, gid) != nil },
			static("no deputy promoted"))
		c.Run(300 * time.Millisecond)
		// Two members leave the overlay for good, orphaning what hung
		// below them.
		for _, nd := range members[1:3] {
			if err := nd.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 5; i < 10; i++ {
			_ = pub.Publish(gid, []byte(fmt.Sprintf("p%d", i)))
			c.Run(10 * time.Millisecond)
		}
		c.Run(500 * time.Millisecond)
		var promotions uint64
		for _, nd := range survivors {
			promotions += nd.Stats().Promotions
		}
		if promotions == 0 {
			t.Fatal("no promotion counted")
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(la) && i < len(lb); i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("traces differ at line %d of %d/%d:\n%s\n%s", i+1, len(la), len(lb), la[i], lb[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(la), len(lb))
	}
	t.Logf("%d trace bytes, %d lines", len(a), bytes.Count(a, []byte("\n")))
}

// TestClusterChaosOnHeap: a chaos layer over a cluster's endpoints takes the
// heap for its clock. A message under LinkRule{Delay: 20ms} arrives at
// exactly link latency + 20 ms of the cluster's time, and a scheduled crash
// applies at its offset, with no timer goroutine touching the heap.
func TestClusterChaosOnHeap(t *testing.T) {
	c := NewCluster(func(string, string) time.Duration { return linkLatency })
	chaos := transport.NewChaosNetwork(1)
	a, err := c.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	ca := chaos.Wrap(a)
	chaos.Wrap(b)
	chaos.SetLinkRule("a", "b", transport.LinkRule{Delay: 20 * time.Millisecond})
	if err := ca.Send("b", wire.Message{Type: wire.TPayload, MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	c.Run(linkLatency + 20*time.Millisecond - time.Nanosecond)
	if d := b.InboxQueue().Depth(); d != 0 {
		t.Fatalf("%d messages arrived before latency + delay", d)
	}
	c.Run(time.Nanosecond)
	if d := b.InboxQueue().Depth(); d != 1 {
		t.Fatalf("%d messages arrived at latency + delay, want 1", d)
	}

	chaos.PlaySchedule([]transport.FaultEvent{transport.CrashAt(5*time.Millisecond, "b")})
	c.Run(5*time.Millisecond - time.Nanosecond)
	if err := ca.Send("b", wire.Message{Type: wire.TPayload, MsgID: 2}); err != nil {
		t.Fatalf("send before the scheduled crash: %v", err)
	}
	c.Run(time.Nanosecond)
	if err := ca.Send("b", wire.Message{Type: wire.TPayload, MsgID: 3}); err == nil {
		t.Fatal("send after the scheduled crash succeeded")
	}
}
