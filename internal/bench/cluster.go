package bench

import (
	"fmt"
	"math/rand"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/node"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// The pinned tree: a complete binary tree of depth 3 in heap order. Node 0
// is the rendezvous; every node is a group member.
const (
	NumNodes = 15
	// Receivers is how many handlers one publish must reach: every node but
	// its source.
	Receivers = NumNodes - 1

	groupID   = "bench"
	stepWait  = 2 * time.Second        // bound on every set-up wait
	pollEvery = 200 * time.Microsecond // neighbour-table poll while linking
	adSettle  = 100 * time.Millisecond // fixed advertisement settle
	quotaBase = NumNodes               // never refuse a pinned link
)

// ParentOf returns the tree parent of node i (i > 0).
func ParentOf(i int) int { return (i - 1) / 2 }

// treeDegree is node i's neighbour count in the pinned tree.
func treeDegree(i int) int {
	d := 0
	if i > 0 {
		d++
	}
	for _, c := range []int{2*i + 1, 2*i + 2} {
		if c < NumNodes {
			d++
		}
	}
	return d
}

// Workload is one of the benchmark's four traffic shapes.
type Workload struct {
	Name string
	// TCP selects loopback TCP (the wire codec, write loops and syscalls
	// run) instead of the in-memory fabric (message values move, no codec).
	TCP  bool
	Mode wire.DeliveryMode
	// AllPublish makes all 15 nodes publish round-robin, so payloads climb
	// and descend the tree; otherwise the root is the only source.
	AllPublish   bool
	PayloadBytes int
	// Heartbeat enables the control plane (heartbeats, beacons, digests,
	// telemetry piggyback, DHT maintenance) beside the data; 0 disables it.
	Heartbeat time.Duration
}

// Workloads lists the four workloads; the names are the ones BENCHMARK.json
// fixes.
var Workloads = []Workload{
	{Name: "mem_tree_be", Mode: wire.BestEffort, PayloadBytes: 64},
	{Name: "tcp_tree_be", TCP: true, Mode: wire.BestEffort, PayloadBytes: 64},
	{Name: "mem_chat_ro", Mode: wire.ReliableOrdered, AllPublish: true, PayloadBytes: 256,
		Heartbeat: 100 * time.Millisecond},
	{Name: "tcp_chat_ro_4k", TCP: true, Mode: wire.ReliableOrdered, AllPublish: true, PayloadBytes: 4096,
		Heartbeat: 100 * time.Millisecond},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Cluster is 15 started in-process nodes joined into the pinned tree.
type Cluster struct {
	Nodes []*node.Node
	Addrs []string
	// tcp holds the concrete TCP transports (nil entries on mem) for the
	// accessors the Transport interface does not carry.
	tcp []*transport.TCPTransport
	// loose are transports created but not yet owned by a node (only while
	// BuildCluster is between listening and node.New).
	loose []transport.Transport

	// SetupTime runs from the first node.New to the tree verified.
	SetupTime time.Duration
	// BootstrapTimes and JoinTimes hold one sample per non-root node.
	BootstrapTimes []time.Duration
	JoinTimes      []time.Duration
}

// BuildCluster creates the cluster for w. The seed drives coordinates and
// node seeds. wrap, when non-nil, wraps each node's transport (the traced
// run); it is given the address→index map of the whole cluster. Any failure
// closes what was created; a tree that differs from the pinned one is a
// failed build, not a retry.
func BuildCluster(w Workload, seed int64, wrap func(i int, tr transport.Transport, index map[string]int) transport.Transport) (c *Cluster, err error) {
	c = &Cluster{tcp: make([]*transport.TCPTransport, NumNodes)}
	defer func() {
		if err != nil {
			c.Close()
			c = nil
		}
	}()

	var mem *transport.MemNetwork
	if !w.TCP {
		mem = transport.NewMemNetwork()
	}
	index := make(map[string]int, NumNodes)
	for i := 0; i < NumNodes; i++ {
		var tr transport.Transport
		if w.TCP {
			t, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				return c, fmt.Errorf("listen node %d: %w", i, err)
			}
			c.tcp[i] = t
			tr = t
		} else {
			ep, err := mem.Endpoint(fmt.Sprintf("n%02d", i))
			if err != nil {
				return c, fmt.Errorf("endpoint node %d: %w", i, err)
			}
			tr = ep
		}
		c.loose = append(c.loose, tr)
		c.Addrs = append(c.Addrs, tr.Addr())
		index[tr.Addr()] = i
	}

	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for i, tr := range c.loose {
		if wrap != nil {
			tr = wrap(i, tr, index)
		}
		coord := coords.Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		cfg := node.DefaultConfig(10, coord, rng.Int63())
		cfg.QuotaBase = quotaBase
		cfg.FallbackAccept = 1
		cfg.AdvertiseFraction = 1
		cfg.HeartbeatInterval = w.Heartbeat
		n := node.New(tr, cfg)
		n.Start()
		c.Nodes = append(c.Nodes, n)
	}
	c.loose = nil

	// Link parent→child in BFS order. The child is still isolated, so the
	// parent's only bootstrap candidate is the child: the overlay is exactly
	// the tree, with no sibling links for an advertisement to race over.
	for i := 1; i < NumNodes; i++ {
		p := ParentOf(i)
		t0 := time.Now()
		if err := c.Nodes[p].Bootstrap([]string{c.Addrs[i]}, stepWait); err != nil {
			return c, fmt.Errorf("bootstrap %d→%d: %w", p, i, err)
		}
		if err := c.waitLinked(p, i); err != nil {
			return c, err
		}
		c.BootstrapTimes = append(c.BootstrapTimes, time.Since(t0))
	}
	for i, n := range c.Nodes {
		if got, want := n.NumNeighbors(), treeDegree(i); got != want {
			return c, fmt.Errorf("node %d has %d neighbours, want tree degree %d", i, got, want)
		}
	}

	root := c.Nodes[0]
	if err := root.CreateGroupMode(groupID, w.Mode); err != nil {
		return c, fmt.Errorf("create group: %w", err)
	}
	if err := root.Advertise(groupID); err != nil {
		return c, fmt.Errorf("advertise: %w", err)
	}
	time.Sleep(adSettle)
	for i := 1; i < NumNodes; i++ {
		t0 := time.Now()
		if err := c.Nodes[i].Join(groupID, stepWait); err != nil {
			return c, fmt.Errorf("join node %d: %w", i, err)
		}
		c.JoinTimes = append(c.JoinTimes, time.Since(t0))
	}
	if err := c.VerifyTree(); err != nil {
		return c, err
	}
	c.SetupTime = time.Since(start)
	return c, nil
}

// waitLinked blocks until nodes a and b list each other as neighbours.
func (c *Cluster) waitLinked(a, b int) error {
	deadline := time.Now().Add(stepWait)
	for {
		if c.hasNeighbor(a, b) && c.hasNeighbor(b, a) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("link %d↔%d not established within %v", a, b, stepWait)
		}
		time.Sleep(pollEvery)
	}
}

func (c *Cluster) hasNeighbor(a, b int) bool {
	for _, nb := range c.Nodes[a].Neighbors() {
		if nb.Addr == c.Addrs[b] {
			return true
		}
	}
	return false
}

// VerifyTree asserts every node's tree view is the pinned one: the root is
// the rendezvous, node i hangs under ParentOf(i), and children match. It runs
// after set-up and again after the measurement, so a repair that moved a node
// mid-run fails the run.
func (c *Cluster) VerifyTree() error {
	for i, n := range c.Nodes {
		tv := n.Tree(groupID)
		if !tv.Exists || !tv.Member {
			return fmt.Errorf("node %d is not a member of the group", i)
		}
		if i == 0 {
			if !tv.Rendezvous || tv.Parent != "" {
				return fmt.Errorf("node 0 is not the rendezvous (parent %q)", tv.Parent)
			}
		} else if want := c.Addrs[ParentOf(i)]; tv.Parent != want {
			return fmt.Errorf("node %d has parent %q, want node %d (%s)", i, tv.Parent, ParentOf(i), want)
		}
		wantChildren := treeDegree(i)
		if i > 0 {
			wantChildren-- // one of its links is the parent
		}
		if got := len(tv.Children); got != wantChildren {
			return fmt.Errorf("node %d has %d children, want %d", i, got, wantChildren)
		}
	}
	return nil
}

// Close stops every node, leaves first so no departure orphans a subtree
// into a repair, and any transport no node owns yet.
func (c *Cluster) Close() {
	for i := len(c.Nodes) - 1; i >= 0; i-- {
		// The transport's close error after a clean stop carries nothing the
		// benchmark acts on; leaked goroutines are checked separately.
		_ = c.Nodes[i].Close()
	}
	for _, tr := range c.loose {
		_ = tr.Close()
	}
	c.Nodes, c.loose = nil, nil
}

// CoalescedMsgs sums the messages that travelled inside TCP container
// frames (0 on the in-memory fabric, which has no frames).
func (c *Cluster) CoalescedMsgs() uint64 {
	var total uint64
	for _, t := range c.tcp {
		if t != nil {
			total += t.CoalesceStats().Msgs
		}
	}
	return total
}
