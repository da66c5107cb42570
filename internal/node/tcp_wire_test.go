package node

import (
	"fmt"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// newTCPCluster spins up n live nodes over real TCP, bootstrapped into one
// overlay.
func newTCPCluster(t *testing.T, n int) []*Node {
	t.Helper()
	var nodes []*Node
	for i := 0; i < n; i++ {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ncfg := DefaultConfig(float64(10*(i+1)), coords.Point{float64(i), 0}, int64(i+1))
		ncfg.HeartbeatInterval = 100 * time.Millisecond
		nd := New(tr, ncfg)
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
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	})
	return nodes
}

// publishAndAwait publishes perSource payloads from each publisher and waits
// until every member (except the publisher itself) has them all, in FIFO
// order per source.
func publishAndAwait(t *testing.T, gid string, members []*Node, recs map[string]*seqRecorder, pubs []*Node, perSource int) {
	t.Helper()
	for i := 0; i < perSource; i++ {
		for _, pub := range pubs {
			if err := pub.Publish(gid, []byte(fmt.Sprintf("p%d", i))); err != nil {
				t.Fatalf("publish %d from %s: %v", i, pub.Addr(), err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, 15*time.Second, func() bool {
		for _, nd := range members {
			for _, pub := range pubs {
				if nd == pub {
					continue
				}
				if recs[nd.Addr()].count(pub.Addr()) < perSource {
					return false
				}
			}
		}
		return true
	}, static("payloads never reached every member"))
	for _, nd := range members {
		for _, pub := range pubs {
			if nd == pub {
				continue
			}
			recs[nd.Addr()].assertFIFO(t, nd.Addr(), pub.Addr(), perSource)
		}
	}
}

// TestNodeClusterBinaryWire soaks a reliable-ordered group over real TCP:
// the full node stack — joins, beacons, digests (batched on the wire with
// whatever else is queued), sequenced payloads, encode-once relay fan-out —
// speaking the hand-rolled codec end to end.
func TestNodeClusterBinaryWire(t *testing.T) {
	const gid, perSource = "bin", 20
	nodes := newTCPCluster(t, 6)
	rdv := nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	for i, nd := range nodes[1:] {
		if err := nd.Join(gid, testTimeout); err != nil {
			t.Fatalf("join node %d: %v", i+1, err)
		}
	}
	recs := make(map[string]*seqRecorder, len(nodes))
	for _, nd := range nodes {
		recs[nd.Addr()] = recordPayloads(nd)
	}
	publishAndAwait(t, gid, nodes, recs, []*Node{rdv, nodes[3]}, perSource)
}
