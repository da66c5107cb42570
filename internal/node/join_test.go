package node

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"testing"
	"time"

	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

var joinSeeds = flag.Int("join-seeds", 2,
	"run TestJoinReturnsOnRootPath on seeds 1..N (CI's fault-free join step runs 200)")

// TestJoinReturnsOnRootPath is the join contract on a fault-free 200-node
// cluster, the DHT on and off: the root publishes best-effort the instant
// each of 66 members' Join returns, and every member delivers every publish
// sent after its own Join returned — a nil from Join means a path to the
// root exists — while the whole join phase counts no tree repair. The fleet
// telemetry plane is off: it plays no part in a join and would cost most of
// the run.
func TestJoinReturnsOnRootPath(t *testing.T) {
	for seed := int64(1); seed <= int64(*joinSeeds); seed++ {
		for _, dht := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/dht=%v", seed, dht), func(t *testing.T) {
				t.Parallel() // each run is its own cluster
				joinOnRootPath(t, seed, dht)
			})
		}
	}
}

func joinOnRootPath(t *testing.T, seed int64, dht bool) {
	c := newDriven(t, 200, seed, func(cfg *Config) { cfg.DisableDHT, cfg.DisableTelemetry = !dht, true })
	root := c.nodes[0]
	if err := root.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := root.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	type member struct {
		nd   *Node
		from int // the first publish sent after its Join returned
		seen map[int]bool
	}
	var members []member
	published := 0
	for i := 3; i < len(c.nodes); i += 3 {
		m := member{c.nodes[i], published, map[int]bool{}}
		m.nd.SetPayloadHandler(func(_ string, _ wire.PeerInfo, data []byte) {
			k, _ := strconv.Atoi(string(data))
			m.seen[k] = true
		})
		if err := m.nd.Join("g", 3*time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		members = append(members, m)
		if err := root.Publish("g", []byte(strconv.Itoa(published))); err != nil {
			t.Fatal(err)
		}
		published++
	}
	c.Run(time.Second)
	missed := 0
	for _, m := range members {
		for k := m.from; k < published; k++ {
			if !m.seen[k] {
				missed++
				t.Errorf("member %s missed publish %d, sent after its Join returned", m.nd.Addr(), k)
				break
			}
		}
	}
	var repairs uint64
	for _, nd := range c.nodes {
		st := nd.Stats()
		repairs += st.RepairsViaSearch + st.RepairsViaBackup
	}
	if repairs != 0 || missed != 0 {
		t.Errorf("fault-free join phase: %d repairs, %d of %d members missed a publish",
			repairs, missed, len(members))
	}
}

// TestForwarderAttachFailureFailsJoin: a joiner whose one access point is
// a forwarder off the tree gets no ack on that forwarder's word. The
// forwarder's own attachment fails — the link to the root drops everything
// — so the joiner's Join returns ErrJoinFailed, not nil, and the forwarder
// keeps no child edge for it.
func TestForwarderAttachFailureFailsJoin(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	var nodes []*Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, c.node(t, harnessConfig(c.rng, i, func(cfg *Config) { cfg.DisableDHT = true })))
	}
	link := func(a, b *Node) { // wired by hand: Bootstrap would link more
		a.post(func() { a.addNeighbor(b.self) })
		b.post(func() { b.addNeighbor(a.self) })
	}
	root, fwd, joiner := nodes[0], nodes[1], nodes[2]
	link(root, fwd)
	if err := root.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := root.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	// The joiner arrives after the flood, so its one access point is the
	// forwarder's search hit; then the root falls silent for the forwarder.
	link(fwd, joiner)
	c.chaos.SetLinkRule(root.Addr(), fwd.Addr(), transport.LinkRule{Drop: 1})
	c.chaos.SetLinkRule(fwd.Addr(), root.Addr(), transport.LinkRule{Drop: 1})
	if err := joiner.Join("g", testTimeout); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("Join through a forwarder that never attached = %v, want ErrJoinFailed", err)
	}
	c.Run(testTimeout) // past the forwarder's own attachment budget
	if tv := fwd.Tree("g"); len(tv.Children) != 0 || tv.Attached {
		t.Fatalf("forwarder after its attachment failed: %+v, want no child, detached", tv)
	}
}
