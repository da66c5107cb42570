package transport

import (
	"testing"
	"time"

	"groupcast/internal/wire"
)

func bestEffortPayload(id uint64) wire.Message {
	return wire.Message{Type: wire.TPayload, MsgID: id, Mode: wire.BestEffort}
}

func reliablePayload(id uint64) wire.Message {
	return wire.Message{Type: wire.TPayload, MsgID: id, Mode: wire.Reliable}
}

// drainInbox receives until the inbox goes quiet for the given idle window.
func drainInbox(in *PrioInbox, idle time.Duration) []wire.Message {
	var out []wire.Message
	for {
		select {
		case msg, ok := <-in.Recv():
			if !ok {
				return out
			}
			out = append(out, msg)
		case <-time.After(idle):
			return out
		}
	}
}

// TestPrioInboxDrainOrder: queued messages leave highest class first. The
// pump may already hold one in-flight message when the rest are queued, so
// the first delivery is exempt from the ordering assertion.
func TestPrioInboxDrainOrder(t *testing.T) {
	in := NewPrioInbox(64, false)
	defer in.Close()
	in.Push(bestEffortPayload(1))
	time.Sleep(20 * time.Millisecond) // let the pump take it in flight
	for i := uint64(2); i < 10; i++ {
		in.Push(bestEffortPayload(i))
	}
	for i := uint64(10); i < 15; i++ {
		in.Push(reliablePayload(i))
	}
	for i := uint64(15); i < 20; i++ {
		in.Push(wire.Message{Type: wire.TBeacon, MsgID: i})
	}
	got := drainInbox(in, 200*time.Millisecond)
	if len(got) != 19 {
		t.Fatalf("drained %d messages, want 19", len(got))
	}
	lastClass := wire.ClassControl
	for i, msg := range got[1:] {
		cls := wire.Classify(&msg)
		if cls < lastClass {
			t.Fatalf("message %d (class %v) delivered after class %v", i+1, cls, lastClass)
		}
		lastClass = cls
	}
}

// TestPrioInboxControlDisplacesBestEffort is the transport half of the
// control-plane starvation regression: flood the inbox with best-effort
// payloads at 10x capacity, then deliver the control plane — beacons,
// NACKs, digests, charter-bearing beacons. Every control message must be
// accepted (displacing best-effort), control sheds must stay zero, and the
// flood must account for the loss.
func TestPrioInboxControlDisplacesBestEffort(t *testing.T) {
	const capacity = 16
	in := NewPrioInbox(capacity, false)
	defer in.Close()

	for i := 0; i < 10*capacity; i++ {
		in.Push(bestEffortPayload(uint64(i)))
	}
	control := []wire.Message{
		{Type: wire.TBeacon, GroupID: "g", Epoch: 3},
		{Type: wire.TNack, GroupID: "g", NackSource: "src", NackSeqs: []uint64{4}},
		{Type: wire.TDigest, GroupID: "g", Digest: []wire.DigestEntry{{Source: "s", High: 9}}},
		{Type: wire.TBeacon, GroupID: "g", Epoch: 3,
			Charter: wire.Charter{GroupID: "g", Epoch: 3}},
		{Type: wire.THeartbeat},
		{Type: wire.THandoff, GroupID: "g"},
	}
	for _, msg := range control {
		if !in.Push(msg) {
			t.Fatalf("control message %v rejected with best-effort slots occupied", msg.Type)
		}
	}

	got := drainInbox(in, 200*time.Millisecond)
	var controlGot int
	for i := range got {
		if wire.Classify(&got[i]) == wire.ClassControl {
			controlGot++
		}
	}
	if controlGot != len(control) {
		t.Fatalf("delivered %d control messages, want %d", controlGot, len(control))
	}
	shed := in.ShedByClass()
	if shed[wire.ClassControl] != 0 {
		t.Fatalf("control sheds = %d, want 0", shed[wire.ClassControl])
	}
	if shed[wire.ClassBestEffort] == 0 {
		t.Fatal("best-effort flood shed nothing at 10x capacity")
	}
	acc := in.AcceptedByClass()
	if int(acc[wire.ClassControl]) != len(control) {
		t.Fatalf("control accepted = %d, want %d", acc[wire.ClassControl], len(control))
	}
	// Conservation: every push was either accepted or shed at arrival, and a
	// displaced victim counts in both (accepted on push, shed on eviction) —
	// so the sum is the flood plus one per displacing control message.
	total := acc[wire.ClassBestEffort] + shed[wire.ClassBestEffort]
	if total < 10*capacity || total > 10*capacity+uint64(len(control)) {
		t.Fatalf("best-effort accepted+shed = %d, want in [%d, %d]",
			total, 10*capacity, 10*capacity+len(control))
	}
}

// TestPrioInboxClasslessStarvesControl pins the legacy failure mode the
// prioritized queue exists to fix: under the single-FIFO policy the same
// flood sheds control messages. (This is the "fails on today's single-queue
// behaviour" half of the regression pair.)
func TestPrioInboxClasslessStarvesControl(t *testing.T) {
	const capacity = 16
	in := NewPrioInbox(capacity, true)
	defer in.Close()

	for i := 0; i < 10*capacity; i++ {
		in.Push(bestEffortPayload(uint64(i)))
	}
	for i := 0; i < 8; i++ {
		in.Push(wire.Message{Type: wire.TBeacon, GroupID: "g", Epoch: uint64(i)})
	}
	shed := in.ShedByClass()
	if shed[wire.ClassControl] == 0 {
		t.Fatal("classless inbox accepted all control during a saturating flood; " +
			"the priority queue would be pointless")
	}
}

// TestPrioInboxReliableDisplacesOnlyBestEffort: reliable-data displaces
// best-effort but never control, and is itself shed when only control and
// reliable traffic remain.
func TestPrioInboxReliableDisplacesOnlyBestEffort(t *testing.T) {
	const capacity = 8
	in := NewPrioInbox(capacity, false)
	defer in.Close()
	time.Sleep(10 * time.Millisecond)

	// Fill with best-effort, then push reliable: displacement.
	for i := 0; i < 2*capacity; i++ {
		in.Push(bestEffortPayload(uint64(i)))
	}
	for i := 0; i < capacity; i++ {
		if !in.Push(reliablePayload(uint64(100 + i))) {
			t.Fatalf("reliable payload %d rejected with best-effort queued", i)
		}
	}
	// The inbox now holds (almost) only reliable data; more reliable pushes
	// must shed as reliable, not displace anything.
	accBefore := in.AcceptedByClass()[wire.ClassReliableData]
	in.Push(reliablePayload(999))
	acc := in.AcceptedByClass()
	shed := in.ShedByClass()
	// Either it landed in a freed slot (the pump drained one) or it shed as
	// reliable; what it must never do is displace control or get counted
	// against another class.
	if acc[wire.ClassReliableData] == accBefore && shed[wire.ClassReliableData] == 0 {
		t.Fatal("reliable push vanished without accept or shed accounting")
	}
	if shed[wire.ClassControl] != 0 {
		t.Fatalf("control sheds = %d, want 0", shed[wire.ClassControl])
	}
}

// TestPrioInboxCloseSemantics: Close is idempotent, closes the Recv stream,
// and rejects later pushes without counting them as sheds.
func TestPrioInboxCloseSemantics(t *testing.T) {
	in := NewPrioInbox(8, false)
	in.Close()
	in.Close()
	if _, ok := <-in.Recv(); ok {
		t.Fatal("Recv still open after Close")
	}
	if in.Push(bestEffortPayload(1)) {
		t.Fatal("push accepted after Close")
	}
	if in.Sheds() != 0 {
		t.Fatalf("closed-inbox push counted as shed: %d", in.Sheds())
	}
}

// TestShedAccountingParity asserts every transport accounts inbox sheds
// identically through the shared prioritized queue: a flood at small
// capacity yields accepted+shed == pushed with the same per-class split,
// whether the endpoint is a MemEndpoint, a TCPTransport, or either wrapped
// in the chaos layer (which previously hid the wrapped endpoint's sheds).
func TestShedAccountingParity(t *testing.T) {
	const capacity = 8
	const flood = 64

	type shedPair struct {
		send func(msg wire.Message) error
		dst  DropCounter
	}
	pairs := map[string]func(t *testing.T) shedPair{
		"mem": func(t *testing.T) shedPair {
			n := NewMemNetwork()
			n.SetInboxPolicy(capacity, false)
			a, b := n.NextEndpoint(), n.NextEndpoint()
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b}
		},
		"mem+chaos": func(t *testing.T) shedPair {
			n := NewMemNetwork()
			n.SetInboxPolicy(capacity, false)
			cn := NewChaosNetwork(7)
			a, b := cn.Wrap(n.NextEndpoint()), cn.Wrap(n.NextEndpoint())
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b}
		},
		"tcp": func(t *testing.T) shedPair {
			cfg := DefaultTCPConfig()
			cfg.InboxCapacity = capacity
			a, err := ListenTCPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ListenTCPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b}
		},
		"tcp+chaos": func(t *testing.T) shedPair {
			cfg := DefaultTCPConfig()
			cfg.InboxCapacity = capacity
			at, err := ListenTCPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			bt, err := ListenTCPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			cn := NewChaosNetwork(7)
			a, b := cn.Wrap(at), cn.Wrap(bt)
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b}
		},
	}

	for name, build := range pairs {
		t.Run(name, func(t *testing.T) {
			p := build(t)
			for i := 0; i < flood; i++ {
				if err := p.send(bestEffortPayload(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			// Conservation must hold once everything in flight has landed.
			deadline := time.Now().Add(5 * time.Second)
			for {
				ds := p.dst.DropStats()
				accepted := uint64(flood) - ds.InboxSheds
				if ds.InboxSheds > 0 && accepted <= uint64(capacity)+1 {
					if ds.BestEffortSheds != ds.InboxSheds {
						t.Fatalf("per-class split broken: best-effort=%d total=%d",
							ds.BestEffortSheds, ds.InboxSheds)
					}
					if ds.ControlSheds != 0 || ds.ReliableSheds != 0 {
						t.Fatalf("phantom sheds: control=%d reliable=%d",
							ds.ControlSheds, ds.ReliableSheds)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("shed accounting never converged: %+v", ds)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
