package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// dropSender is a transport with the MultiSender fast path that reports
// every send as accepted and delivers nothing.
type dropSender struct {
	transport.Transport
}

func (dropSender) Send(string, wire.Message) error { return nil }

func (dropSender) SendMany(addrs []string, _ wire.Message, each func(string, error)) {
	for _, addr := range addrs {
		each(addr, nil)
	}
}

// relayNode is an unstarted node that relays group "g" between its parent
// and the given children.
func relayNode(tr transport.Transport, mode wire.DeliveryMode, member bool, kids []string) *Node {
	n := New(tr, DefaultConfig(10, nil, 7))
	stepAt(n, time.Now(), event{flow: func() {
		gs := newGroupState(mode)
		gs.member = member
		gs.parent = "parent"
		for _, kid := range kids {
			gs.children[kid] = wire.PeerInfo{Addr: kid}
		}
		n.groups["g"] = gs
	}})
	return n
}

// TestRelayEventAllocatesNothing: once warm, a relay event — the payload
// through the receive window, the release and the fan-out to two children —
// allocates nothing, best-effort or reliable-ordered, as a member or as a
// pure forwarder.
func TestRelayEventAllocatesNothing(t *testing.T) {
	for _, mode := range []wire.DeliveryMode{wire.BestEffort, wire.ReliableOrdered} {
		for _, member := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/member=%v", mode, member), func(t *testing.T) {
				n := relayNode(dropSender{stubEndpoint()}, mode, member, []string{"kid-a", "kid-b"})
				defer n.Close()
				now := time.Now()
				msg := wire.Message{
					Type: wire.TPayload, From: wire.PeerInfo{Addr: "src"},
					Relay: wire.PeerInfo{Addr: "parent"}, GroupID: "g", Mode: mode,
					Data: make([]byte, 64),
				}
				ev := event{msg: &msg}
				relay := func() {
					now = now.Add(10 * time.Microsecond)
					msg.Seq++
					msg.OriginAt, msg.RelayedAt = now.Add(-time.Millisecond), now.Add(-5*time.Microsecond)
					stepAt(n, now, ev)
				}
				for i := 0; i < 2000; i++ {
					relay()
				}
				if a := testing.AllocsPerRun(1000, relay); a != 0 {
					t.Errorf("a relayed payload allocates %.2f times, want 0", a)
				}
				if got, want := n.Stats().Sent[wire.TPayload.String()], uint64(2*(2000+1001)); got != want {
					t.Fatalf("sent %d messages, want %d (two children per payload)", got, want)
				}
			})
		}
	}
}

// TestRelayPopAllocatesNothing: the same warm relay event, taken as the loop
// takes it — pushed into the node's inbox and popped by receive into the
// one message every event reuses — allocates nothing either.
func TestRelayPopAllocatesNothing(t *testing.T) {
	for _, mode := range []wire.DeliveryMode{wire.BestEffort, wire.ReliableOrdered} {
		for _, member := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/member=%v", mode, member), func(t *testing.T) {
				n := relayNode(dropSender{stubEndpoint()}, mode, member, []string{"kid-a", "kid-b"})
				defer n.Close()
				now := time.Now()
				arrival := wire.Message{
					Type: wire.TPayload, From: wire.PeerInfo{Addr: "src"},
					Relay: wire.PeerInfo{Addr: "parent"}, GroupID: "g", Mode: mode,
					Data: make([]byte, 64),
				}
				var msg wire.Message
				relay := func() {
					now = now.Add(10 * time.Microsecond)
					arrival.Seq++
					arrival.OriginAt, arrival.RelayedAt = now.Add(-time.Millisecond), now.Add(-5*time.Microsecond)
					if !n.inbox.Push(arrival) || !n.receive(now, &msg) || n.inbox.Depth() != 0 {
						t.Fatal("the pushed payload was not popped and run")
					}
				}
				for i := 0; i < 2000; i++ {
					relay()
				}
				if a := testing.AllocsPerRun(1000, relay); a != 0 {
					t.Errorf("a popped and relayed payload allocates %.2f times, want 0", a)
				}
				if got, want := n.Stats().Sent[wire.TPayload.String()], uint64(2*(2000+1001)); got != want {
					t.Fatalf("sent %d messages, want %d (two children per payload)", got, want)
				}
			})
		}
	}
}

// TestRelayStampsForwardsInPlace: a relay stamps the arrival itself for its
// fan-out and restores it after. Each forward carries this relay, one more
// hop and the event's stamp; the recv trace reports the arrival's hop and
// relay peer; and the message the event ran on ends as it arrived.
func TestRelayStampsForwardsInPlace(t *testing.T) {
	log := &sendLog{Transport: stubEndpoint()}
	n := relayNode(log, wire.BestEffort, true, []string{"kid-a", "kid-b"})
	n.tracer = trace.New(64, nil)
	defer n.Close()
	now := time.Now().Add(time.Second)
	arrival := wire.Message{
		Type: wire.TPayload, From: wire.PeerInfo{Addr: "src"},
		Relay: wire.PeerInfo{Addr: "parent"}, GroupID: "g", Mode: wire.BestEffort,
		Seq: 1, Hops: 2, TraceID: 9, Data: []byte("x"),
		OriginAt: now.Add(-time.Millisecond), RelayedAt: now.Add(-100 * time.Microsecond),
	}
	msg := arrival
	stepAt(n, now, event{msg: &msg})
	var kids []string
	for _, s := range log.sent {
		if s.msg.Type != wire.TPayload {
			continue
		}
		kids = append(kids, s.to)
		if s.msg.Relay.Addr != n.Addr() || s.msg.Hops != 3 || !s.msg.RelayedAt.Equal(now) {
			t.Errorf("forward to %s: relay %q, hops %d, relayed at %v; want %q, 3, %v",
				s.to, s.msg.Relay.Addr, s.msg.Hops, s.msg.RelayedAt, n.Addr(), now)
		}
	}
	if fmt.Sprint(kids) != "[kid-a kid-b]" {
		t.Fatalf("forwarded to %v, want [kid-a kid-b]", kids)
	}
	var recvs int
	for _, ev := range n.TraceEvents(0) {
		if ev.Kind != trace.KindRecv {
			continue
		}
		recvs++
		if ev.Hop != 2 || ev.Peer != "parent" {
			t.Errorf("recv trace: hop %d from %q, want the arrival's 2 from \"parent\"", ev.Hop, ev.Peer)
		}
	}
	if recvs != 1 {
		t.Errorf("%d recv trace events, want 1", recvs)
	}
	if !reflect.DeepEqual(msg, arrival) {
		t.Errorf("after the event the message is %+v, want the arrival %+v", msg, arrival)
	}
}

// TestRelaySendsInAddressOrder: a relay sends a payload to its parent and
// then to its children in address order, however the children joined, so
// one seed gives one send order.
func TestRelaySendsInAddressOrder(t *testing.T) {
	kids := []string{"kid-a", "kid-b", "kid-c", "kid-d", "kid-e"}
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 20; run++ {
		joined := append([]string(nil), kids...)
		rng.Shuffle(len(joined), func(i, j int) { joined[i], joined[j] = joined[j], joined[i] })
		log := &sendLog{Transport: stubEndpoint()}
		n := relayNode(log, wire.BestEffort, true, joined)
		now := time.Now()
		for seq, hop := range []string{"parent", "kid-c"} {
			msg := wire.Message{
				Type: wire.TPayload, From: wire.PeerInfo{Addr: "src"},
				Relay: wire.PeerInfo{Addr: hop}, GroupID: "g", Seq: uint64(seq + 1),
			}
			stepAt(n, now, event{msg: &msg})
		}
		_ = n.Close()
		var got []string
		for _, s := range log.sent {
			if s.msg.Type == wire.TPayload {
				got = append(got, s.to)
			}
		}
		want := []string{
			"kid-a", "kid-b", "kid-c", "kid-d", "kid-e", // from the parent
			"parent", "kid-a", "kid-b", "kid-d", "kid-e", // from kid-c
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d (children joined %v) sent to %v, want %v", run, joined, got, want)
		}
	}
}
