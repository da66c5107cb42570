package transport

import (
	"fmt"
	"reflect"
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
	// A TCP inbox is flooded at a small capacity, a MemNetwork's at the
	// default one; either flood is eight times the capacity.
	const capacity = 8

	type shedPair struct {
		send     func(msg wire.Message) error
		dst      DropCounter
		capacity int
	}
	pairs := map[string]func(t *testing.T) shedPair{
		"mem": func(t *testing.T) shedPair {
			n := NewMemNetwork()
			a, b := n.NextEndpoint(), n.NextEndpoint()
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b,
				capacity: DefaultInboxCapacity}
		},
		"mem+chaos": func(t *testing.T) shedPair {
			n := NewMemNetwork()
			cn := NewChaosNetwork(7)
			a, b := cn.Wrap(n.NextEndpoint()), cn.Wrap(n.NextEndpoint())
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b,
				capacity: DefaultInboxCapacity}
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
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b,
				capacity: capacity}
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
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b,
				capacity: capacity}
		},
	}

	for name, build := range pairs {
		t.Run(name, func(t *testing.T) {
			p := build(t)
			flood := 8 * p.capacity
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
				if ds.InboxSheds > 0 && accepted <= uint64(p.capacity)+1 {
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

// TestPrioInboxSteadyStateAllocatesNothing: once a class ring has its slots,
// a stream that pushes and pops through it allocates nothing.
func TestPrioInboxSteadyStateAllocatesNothing(t *testing.T) {
	in := NewPrioInbox(64, false)
	defer in.Close()
	msg, got := bestEffortPayload(1), wire.Message{}
	cycle := func() {
		for i := 0; i < 8; i++ {
			in.Push(msg)
		}
		for i := 0; i < 8; i++ {
			in.Pop(&got)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("8 pushes and 8 pops allocate %.1f times, want 0", a)
	}
}

// TestPopOverwritesEveryField: Pop moves the whole message into dst, so a
// consumer that pops into one reused variable keeps nothing of the message
// before: a payload popped over a beacon carries none of the beacon's
// fields, and an empty Pop leaves dst as it was.
func TestPopOverwritesEveryField(t *testing.T) {
	in := NewPrioInbox(8, false)
	defer in.Close()
	roster := []wire.PeerInfo{{Addr: "d1", Capacity: 5}, {Addr: "d2"}}
	beacon := wire.Message{
		Type: wire.TBeacon, From: wire.PeerInfo{Addr: "root"}, GroupID: "g", Epoch: 2,
		Path: []string{"root"}, Deputies: roster,
		Health:  []wire.HealthDigest{{Addr: "root", Epoch: 9, Pressure: 0.5}},
		Charter: wire.Charter{GroupID: "g", Epoch: 2, Deputies: roster},
	}
	payload := wire.Message{
		Type: wire.TPayload, From: wire.PeerInfo{Addr: "src"}, GroupID: "g",
		Mode: wire.BestEffort, Seq: 3, Data: []byte("x"),
	}
	in.Push(payload)
	in.Push(beacon)
	var msg wire.Message
	if !in.Pop(&msg) || !reflect.DeepEqual(msg, beacon) {
		t.Fatalf("first pop = %+v, want the beacon", msg)
	}
	if !in.Pop(&msg) || !reflect.DeepEqual(msg, payload) {
		t.Fatalf("payload popped over the beacon = %+v, want %+v", msg, payload)
	}
	if in.Pop(&msg) || !reflect.DeepEqual(msg, payload) {
		t.Fatalf("empty pop reported a message or changed dst to %+v", msg)
	}
}

// popIDs pops everything queued and lists the MsgIDs in pop order.
func popIDs(in *PrioInbox) []uint64 {
	var ids []uint64
	var msg wire.Message
	for {
		if !in.Pop(&msg) {
			return ids
		}
		ids = append(ids, msg.MsgID)
	}
}

// TestPrioInboxRingWrapAndGrowKeepFIFO: a class ring keeps arrival order
// across a wrap and across a growth while wrapped, and the slots it popped
// hold no message.
func TestPrioInboxRingWrapAndGrowKeepFIFO(t *testing.T) {
	in := NewPrioInbox(64, false)
	defer in.Close()
	next := uint64(0)
	push := func(k int) {
		for ; k > 0; k-- {
			in.Push(bestEffortPayload(next))
			next++
		}
	}
	push(10)
	var popped wire.Message
	for i := 0; i < 6; i++ {
		in.Pop(&popped)
	}
	push(ringMinSlots - 4) // fills the ring past its end: wrapped and full
	r := &in.queues[wire.ClassBestEffort]
	if r.head == 0 || r.size != len(r.buf) {
		t.Fatalf("ring not wrapped and full: head %d, size %d of %d", r.head, r.size, len(r.buf))
	}
	push(5) // grows while wrapped
	if len(r.buf) != 2*ringMinSlots {
		t.Fatalf("ring holds %d slots after growing, want %d", len(r.buf), 2*ringMinSlots)
	}
	got := popIDs(in)
	for i, id := range got {
		if id != uint64(6+i) {
			t.Fatalf("pop %d gave message %d, want %d (all: %v)", i, id, 6+i, got)
		}
	}
	if len(got) != int(next)-6 {
		t.Fatalf("popped %d messages, want %d", len(got), int(next)-6)
	}
	for i := range r.buf {
		if r.buf[i].Type != 0 || r.buf[i].MsgID != 0 {
			t.Fatalf("slot %d still holds message %d after the drain", i, r.buf[i].MsgID)
		}
	}
}

// TestPrioInboxDisplacesOldestOfWrappedRing: when the inbox is full, a
// control arrival displaces the oldest best-effort message even when that
// ring has wrapped, so its oldest is not at slot 0.
func TestPrioInboxDisplacesOldestOfWrappedRing(t *testing.T) {
	const capacity = ringMinSlots
	in := NewPrioInbox(capacity, false)
	defer in.Close()
	for i := uint64(0); i < 10; i++ {
		in.Push(bestEffortPayload(i))
	}
	var popped wire.Message
	for i := 0; i < 6; i++ {
		in.Pop(&popped)
	}
	for i := uint64(10); i < 22; i++ {
		in.Push(bestEffortPayload(i))
	}
	if r := &in.queues[wire.ClassBestEffort]; r.head == 0 || in.Depth() != capacity {
		t.Fatalf("victim ring not wrapped at capacity: head %d, depth %d", r.head, in.Depth())
	}
	if !in.Push(wire.Message{Type: wire.TBeacon, MsgID: 100}) {
		t.Fatal("control arrival rejected with best-effort queued")
	}
	got := popIDs(in)
	want := []uint64{100}
	for i := uint64(7); i < 22; i++ {
		want = append(want, i)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after displacement popped %v, want %v", got, want)
	}
	if shed := in.ShedByClass(); shed[wire.ClassBestEffort] != 1 || shed[wire.ClassControl] != 0 {
		t.Fatalf("sheds %v, want one best-effort", shed)
	}
}

// TestPrioInboxClasslessKeepsArrivalOrder: the classless inbox is one ring,
// so messages leave in arrival order whatever their class, across a wrap.
func TestPrioInboxClasslessKeepsArrivalOrder(t *testing.T) {
	in := NewPrioInbox(64, true)
	defer in.Close()
	msgs := []func(uint64) wire.Message{
		bestEffortPayload,
		func(id uint64) wire.Message { return wire.Message{Type: wire.TBeacon, MsgID: id} },
		reliablePayload,
	}
	r := &in.queues[0]
	var want, got []uint64
	wrapped := false
	for id := uint64(0); id < 3*ringMinSlots; id++ {
		in.Push(msgs[id%3](id))
		want = append(want, id)
		wrapped = wrapped || r.head+r.size > len(r.buf)
		if id%4 == 3 {
			// Keep one queued, so the ring never empties and its head
			// travels round instead of resetting.
			for in.Depth() > 1 {
				var msg wire.Message
				in.Pop(&msg)
				got = append(got, msg.MsgID)
			}
		}
	}
	got = append(got, popIDs(in)...)
	if !wrapped {
		t.Fatal("the classless ring never wrapped")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("classless popped %v, want arrival order %v", got, want)
	}
	for c := 1; c < wire.NumClasses; c++ {
		if in.queues[c].buf != nil {
			t.Fatalf("classless inbox used ring %d", c)
		}
	}
}

// TestPrioInboxReleasesBurstBuffers: after a burst that fills the inbox is
// drained, no class ring holds more than ringKeepSlots slots.
func TestPrioInboxReleasesBurstBuffers(t *testing.T) {
	in := NewPrioInbox(0, false)
	defer in.Close()
	for i := 0; i < in.Capacity(); i++ {
		switch i % 3 {
		case 0:
			in.Push(bestEffortPayload(uint64(i)))
		case 1:
			in.Push(reliablePayload(uint64(i)))
		default:
			in.Push(wire.Message{Type: wire.TBeacon, MsgID: uint64(i)})
		}
	}
	if in.Depth() != in.Capacity() {
		t.Fatalf("burst queued %d of %d", in.Depth(), in.Capacity())
	}
	if n := len(popIDs(in)); n != in.Capacity() {
		t.Fatalf("drained %d of %d", n, in.Capacity())
	}
	for c := range in.queues {
		if slots := len(in.queues[c].buf); slots > ringKeepSlots {
			t.Fatalf("class %d holds %d slots after the drain, want <= %d", c, slots, ringKeepSlots)
		}
	}
}

// TestPrioInboxCloseDropsReferences: Close lets go of every queued message,
// so a closed inbox pins no payload.
func TestPrioInboxCloseDropsReferences(t *testing.T) {
	in := NewPrioInbox(64, false)
	for i := uint64(0); i < 8; i++ {
		in.Push(wire.Message{Type: wire.TPayload, MsgID: i, Data: make([]byte, 64)})
		in.Push(wire.Message{Type: wire.TBeacon, MsgID: 100 + i})
	}
	in.Close()
	for c := range in.queues {
		if r := in.queues[c]; r.buf != nil || r.size != 0 {
			t.Fatalf("class %d still holds %d messages in %d slots after Close", c, r.size, len(r.buf))
		}
	}
	if in.Pop(new(wire.Message)) {
		t.Fatal("Pop returned a message after Close")
	}
}
