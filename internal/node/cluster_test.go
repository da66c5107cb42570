package node

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/peer"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// driven is a cluster of nodes in virtual time behind one chaos layer:
// the harness of every node test that does not test the live loop. Every
// link takes linkLatency unless a test sets the cluster's latency.
type driven struct {
	*Cluster
	chaos *transport.ChaosNetwork
	rng   *rand.Rand
	nodes []*Node
}

const linkLatency = time.Millisecond

// harnessConfig is node i's config in both multi-node harnesses: a Table 1
// capacity, a coordinate on a 100×100 plane, 100 ms heartbeats and a
// beacon grace of 4 epochs, then tweak.
func harnessConfig(rng *rand.Rand, i int, tweak func(*Config)) Config {
	cfg := DefaultConfig(float64(peer.MustTable1Sampler().Sample(rng)),
		coords.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(i+1))
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.BeaconGraceEpochs = 4
	if tweak != nil {
		tweak(&cfg)
	}
	return cfg
}

// newest lists the addresses of the last k nodes, newest first: the
// bootstrap contacts of the next node in both harnesses.
func newest(nodes []*Node, k int) []string {
	var out []string
	for j := len(nodes) - 1; j >= 0 && len(out) < k; j-- {
		out = append(out, nodes[j].Addr())
	}
	return out
}

// newDriven builds n nodes with harnessConfig, each bootstrapping through
// the five before it.
func newDriven(t testing.TB, n int, seed int64, tweak func(*Config)) *driven {
	t.Helper()
	c := &driven{
		Cluster: NewCluster(func(string, string) time.Duration { return linkLatency }),
		chaos:   transport.NewChaosNetwork(seed),
		rng:     rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < n; i++ {
		c.add(t, harnessConfig(c.rng, i, tweak), newest(c.nodes, 5))
	}
	return c
}

// node starts one more node, not yet bootstrapped.
func (c *driven) node(t testing.TB, cfg Config) *Node {
	t.Helper()
	ep, err := c.Endpoint(fmt.Sprintf("v%03d", len(c.nodes)))
	if err != nil {
		t.Fatal(err)
	}
	nd := New(c.chaos.Wrap(ep), cfg)
	c.Start(nd)
	c.nodes = append(c.nodes, nd)
	return nd
}

// add starts one more node and bootstraps it through contacts.
func (c *driven) add(t testing.TB, cfg Config, contacts []string) *Node {
	t.Helper()
	nd := c.node(t, cfg)
	if err := nd.Bootstrap(contacts, testTimeout); err != nil {
		t.Fatalf("bootstrap %s: %v", nd.Addr(), err)
	}
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

// wallClock lists the node test code that stays on the wall clock, each
// with its reason: the tests themselves and the helpers they use.
// TestNodeTestsRunOnTheDriver keeps every other node test on newDriven.
var wallClock = map[string]string{
	// The live loop: run, the handler goroutine, post and await.
	"TestHandlerContractSerial":    "no two calls of the handler goroutine overlap",
	"TestHandlerContractRepublish": "a Publish from the handler goroutine does not deadlock the loop",
	"TestHandlerContractLeave":     "a Leave from the handler goroutine does not stop the loop",
	"TestJoinFromHandler":          "a Join from the handler goroutine waits on a loop the handler is not",
	"TestSlowConsumerKeepsTree":    "a blocked handler goroutine holds back no loop duty",
	"TestSnapshotsRaceSafe":        "snapshots read from other goroutines race a live loop",
	// Goroutine and leak counts, and races against a live loop.
	"TestIdleNodeGoroutines":     "counts the goroutines of a started node",
	"TestRepairCostsNoGoroutine": "counts the goroutines of a live repair",
	"TestDhtChurnSoak":           "counts goroutines leaked by live churn",
	"TestDhtRepublishStopRace":   "races republishes against Leave and Close on a live loop",
	// TCP.
	"TestNodeOverTCP":                     "runs over loopback TCP",
	"TestNodeClusterBinaryWire":           "runs over loopback TCP",
	"TestBlackHoledNeighbourKeepsOverlay": "dials a black-holed TCP listener",
	"TestOverloadSoakTCP":                 "saturates a stalled TCP peer",
	"TestControlSurvivesSaturatedLink":    "saturates a TCP link",
	"publishAndAwait":                     "paces publishes over TCP",
	// The publish ns/op gate.
	"TestTelemetryPublishOverhead": "times Publish on a live loop",
	"runPublishBench":              "times Publish on a live loop",
	"benchPublishCluster":          "builds the live pair the publish gate times",
	// The wall-clock helpers.
	"waitFor":           "polls a condition on the wall clock",
	"waitGoroutines":    "polls the goroutine count",
	"settledGoroutines": "samples the goroutine count",
	"newLive":           "the live harness",
}

// TestNodeTestsRunOnTheDriver keeps node tests in virtual time: a function
// in this package's tests that sleeps, builds a MemNetwork or calls a
// wallClock helper (the wall-clock waitFor among them) must be listed in
// wallClock, and every function listed there must still need to be.
func TestNodeTestsRunOnTheDriver(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	uses := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			var why []string
			sels := map[*ast.Ident]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sels[n.Sel] = true
					if pkg, ok := n.X.(*ast.Ident); ok {
						if q := pkg.Name + "." + n.Sel.Name; q == "time.Sleep" || q == "transport.NewMemNetwork" {
							why = append(why, fmt.Sprintf("%s at %s", q, fset.Position(n.Pos())))
						}
					}
				case *ast.Ident:
					if _, listed := wallClock[n.Name]; listed && !sels[n] {
						why = append(why, fmt.Sprintf("%s at %s", n.Name, fset.Position(n.Pos())))
					}
				}
				return true
			})
			if len(why) == 0 {
				continue
			}
			uses[name] = true
			if _, listed := wallClock[name]; !listed {
				t.Errorf("%s runs on the wall clock (%s): move it onto newDriven, or list it in wallClock with its reason",
					name, strings.Join(why, ", "))
			}
		}
	}
	for name := range wallClock {
		if !uses[name] {
			t.Errorf("%s is listed in wallClock but no longer touches the wall clock", name)
		}
	}
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

// TestClusterServiceTime: a message's service time keeps its node busy, so
// a burst waits in the inbox and drains one message per service time, at
// exact busy-until instants; with none, every arrival runs at once.
func TestClusterServiceTime(t *testing.T) {
	c := newDriven(t, 2, 1, func(cfg *Config) { cfg.HeartbeatInterval = 0 })
	a, b := c.nodes[0], c.nodes[1]
	c.Run(time.Second)
	burst := func() {
		for i := 0; i < 3; i++ {
			if err := a.tr.Send(b.Addr(), wire.Message{Type: wire.TPayload, GroupID: "none"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	depth := func(want int) {
		t.Helper()
		if got := b.InboxQueue().Depth(); got != want {
			t.Fatalf("at %v: %d messages queued, want %d", c.Now().Sub(clusterOrigin), got, want)
		}
	}
	burst()
	c.Run(linkLatency)
	depth(0)

	const service = 10 * time.Millisecond
	c.SetServiceTime(func(to string, typ wire.Type) time.Duration {
		if to == b.Addr() && typ == wire.TPayload {
			return service
		}
		return 0
	})
	burst()
	c.Run(linkLatency)
	depth(2)
	c.Run(service - time.Nanosecond)
	depth(2)
	c.Run(time.Nanosecond)
	depth(1)
	c.Run(service)
	depth(0)
}

// stubEndpoint is an endpoint alone on a cluster of its own, for a node
// that is never started or is stepped by hand.
func stubEndpoint() transport.Transport {
	ep, _ := NewCluster(nil).Endpoint("stub")
	return ep
}

// nodeAddrs lists the nodes' addresses, in order.
func nodeAddrs(nodes []*Node) []string {
	out := make([]string, 0, len(nodes))
	for _, nd := range nodes {
		out = append(out, nd.Addr())
	}
	return out
}
