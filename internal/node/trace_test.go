package node

import (
	"fmt"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// TestTraceReconstructsPublishPathWithNackRecovery is the acceptance test of
// the tracing layer: on a 6-node in-memory cluster it publishes into a
// Reliable group while chaos drops the first payload on one tree link, then
// reconstructs the full hop-by-hop dissemination path of that payload —
// including the NACK-recovered hop — purely from the trace events the nodes
// collected.
func TestTraceReconstructsPublishPathWithNackRecovery(t *testing.T) {
	const groupID = "traced"
	c := newDriven(t, 0, 7, nil)
	for i := 0; i < 6; i++ {
		cfg := DefaultConfig(float64(10*(1+i%3)), coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 200 * time.Millisecond
		cfg.Tracer = trace.New(4096, nil)
		contacts := nodeAddrs(c.nodes)
		if err := c.node(t, cfg).Bootstrap(contacts, time.Second); err != nil {
			t.Fatalf("node %d bootstrap: %v", i, err)
		}
	}
	nodes := c.nodes

	rdv := nodes[0]
	if err := rdv.CreateGroupMode(groupID, wire.Reliable); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := rdv.Advertise(groupID); err != nil {
			t.Fatal(err)
		}
		c.Run(50 * time.Millisecond)
	}
	members := nodes[1:]
	for i, m := range members {
		if err := m.Join(groupID, 3*time.Second); err != nil {
			t.Fatalf("node %d join: %v", i+1, err)
		}
	}

	delivered := make(map[string]map[string]bool) // member addr -> payload -> seen
	for _, m := range members {
		addr := m.Addr()
		delivered[addr] = make(map[string]bool)
		m.SetPayloadHandler(func(_ string, _ wire.PeerInfo, data []byte) {
			delivered[addr][string(data)] = true
		})
	}

	// Pick one direct child of the rendezvous and silently drop everything
	// on that tree link while the first payload goes out.
	victim := ""
	for _, td := range rdv.TreeDetails() {
		if td.Group != groupID {
			continue
		}
		for _, l := range td.Links {
			if l.Role == "child" {
				victim = l.Addr
				break
			}
		}
	}
	if victim == "" {
		t.Fatal("rendezvous has no child links")
	}
	c.chaos.SetLinkRule(rdv.Addr(), victim, transport.LinkRule{Drop: 1})
	if err := rdv.Publish(groupID, []byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	// Wait for the doomed copy to actually cross (and die on) the chaos
	// link before healing it, so the drop is deterministic.
	c.waitFor(t, 5*time.Second, func() bool { return c.chaos.Stats().RuleDrops > 0 },
		static("chaos link never dropped the first payload"))
	c.chaos.SetLinkRule(rdv.Addr(), victim, transport.LinkRule{})
	// The second publish reveals the sequence gap at the victim, whose NACK
	// machinery then recovers payload one.
	if err := rdv.Publish(groupID, []byte("payload-two")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 20*time.Second, func() bool {
		for _, m := range members {
			if !delivered[m.Addr()]["payload-one"] || !delivered[m.Addr()]["payload-two"] {
				return false
			}
		}
		return true
	}, func() string { return fmt.Sprintf("incomplete delivery: %v", delivered) })

	// ---- Reconstruction: everything below uses only the trace events. ----
	var events []trace.Event
	for _, nd := range nodes {
		events = append(events, nd.TraceEvents(0)...)
	}

	// The publish event at the origin names the trace.
	var traceID uint64
	var seq uint64
	source := rdv.Addr()
	for _, ev := range events {
		if ev.Kind == trace.KindPublish && ev.Node == source && ev.Group == groupID && ev.Seq == 1 {
			traceID, seq = ev.TraceID, ev.Seq
		}
	}
	if traceID == 0 {
		t.Fatal("no publish event with a trace ID for seq 1 at the rendezvous")
	}

	// Collect this payload's hops: send/retransmit events are directed edges
	// node -> peer; recv/deliver events confirm arrival and delivery.
	inTrace := func(ev trace.Event) bool {
		return ev.TraceID == traceID && ev.Seq == seq
	}
	edges := make(map[string][]string)
	recvAt := make(map[string]bool)
	deliverAt := make(map[string]bool)
	retransmitTo := make(map[string]bool)
	// The NACK chain that recovered the payload is its own trace, tied to
	// the payload by (group, source): map each chain's trace ID to the node
	// that originated the repair request.
	nackOrigin := make(map[uint64]string)
	var nackFwds []trace.Event
	for _, ev := range events {
		if !inTrace(ev) {
			if ev.Group == groupID && ev.Source == source && ev.N >= 1 {
				switch ev.Kind {
				case trace.KindNack:
					nackOrigin[ev.TraceID] = ev.Node
				case trace.KindNackFwd:
					nackFwds = append(nackFwds, ev)
				}
			}
			continue
		}
		switch ev.Kind {
		case trace.KindSend, trace.KindRetransmit:
			edges[ev.Node] = append(edges[ev.Node], ev.Peer)
			if ev.Kind == trace.KindRetransmit {
				retransmitTo[ev.Peer] = true
			}
		case trace.KindRecv:
			recvAt[ev.Node] = true
		case trace.KindDeliver:
			deliverAt[ev.Node] = true
			if ev.Source != source {
				t.Errorf("deliver event at %s names source %s, want %s", ev.Node, ev.Source, source)
			}
		}
	}
	if len(retransmitTo) == 0 {
		t.Error("no retransmit hop in the trace: recovery path not captured")
	}
	if len(nackOrigin) == 0 {
		t.Error("no NACK origination event for the lost payload")
	}
	// Retransmissions answer a NACK chain by going straight back to the
	// chain's originator: at least one recorded retransmit must name a
	// recorded NACK origin, closing the recovery loop in the trace.
	closed := false
	for _, origin := range nackOrigin {
		if retransmitTo[origin] {
			closed = true
		}
	}
	if !closed {
		t.Errorf("no retransmit targets a NACK origin (origins %v, retransmits to %v)", nackOrigin, retransmitTo)
	}
	// Escalated NACKs keep their chain's trace ID, so each forwarding hop
	// joins to the origination event.
	for _, fwd := range nackFwds {
		if _, ok := nackOrigin[fwd.TraceID]; !ok {
			t.Errorf("nack-fwd at %s carries trace %d with no matching NACK origin", fwd.Node, fwd.TraceID)
		}
	}
	if t.Failed() {
		t.Logf("victim=%s source=%s traceID=%d", victim, source, traceID)
		for _, ev := range events {
			if ev.Kind == trace.KindNack || ev.Kind == trace.KindNackFwd || ev.Kind == trace.KindRetransmit || inTrace(ev) {
				t.Logf("%s %s group=%s trace=%d seq=%d src=%s peer=%s n=%d", ev.Node, ev.Kind, ev.Group, ev.TraceID, ev.Seq, ev.Source, ev.Peer, ev.N)
			}
		}
	}
	// Walk the reconstructed hops from the origin: every member must be
	// reachable through recorded send/retransmit edges, and every hop the
	// walk crosses must have a matching recv at its destination.
	reached := map[string]bool{source: true}
	queue := []string{source}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range edges[cur] {
			if reached[next] {
				continue
			}
			if !recvAt[next] {
				t.Errorf("edge %s -> %s has no recv event at the destination", cur, next)
			}
			reached[next] = true
			queue = append(queue, next)
		}
	}
	for _, m := range members {
		if !reached[m.Addr()] {
			t.Errorf("member %s unreachable in the reconstructed path", m.Addr())
		}
		if !deliverAt[m.Addr()] {
			t.Errorf("member %s has no deliver event for seq %d", m.Addr(), seq)
		}
	}
}
