package node

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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
