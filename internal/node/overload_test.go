package node

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/dht"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// forceDegraded flips the overload controller into the degraded state
// directly, bypassing the sampler — tests that exercise the policy (admission
// control, relay shedding) should not depend on pressure timing.
func forceDegraded(n *Node, degraded bool) {
	n.post(func() { n.overload.enteredAt, n.overload.degraded = n.now, degraded })
}

// quietOverloadConfig returns a config whose overload sampler effectively
// never ticks, so tests fully own the controller state.
func quietOverloadConfig(capacity float64, coord coords.Point, seed int64) Config {
	cfg := DefaultConfig(capacity, coord, seed)
	cfg.OverloadSampleInterval = time.Hour
	return cfg
}

// TestOverloadHysteresis drives the controller tick-by-tick and walks the
// full hysteresis cycle deterministically: enter needs EnterSamples
// consecutive high-pressure samples, exit needs ExitSamples consecutive
// low-pressure ones, and any sample inside the band resets the streak.
func TestOverloadHysteresis(t *testing.T) {
	net := transport.NewMemNetwork()
	n := New(net.NextEndpoint(), quietOverloadConfig(10, nil, 1))
	// Defaults: enter >= 0.75 after 3 samples, exit <= 0.25 after 5.

	n.overloadTick(0.9)
	n.overloadTick(0.9)
	if n.Overloaded() {
		t.Fatal("degraded after 2/3 enter samples")
	}
	n.overloadTick(0.5) // inside the band: resets the enter streak
	n.overloadTick(0.9)
	n.overloadTick(0.9)
	if n.Overloaded() {
		t.Fatal("degraded though the enter streak was reset")
	}
	n.overloadTick(0.9)
	if !n.Overloaded() {
		t.Fatal("not degraded after 3 consecutive enter samples")
	}
	if ep := n.Stats().OverloadEpisodes; ep != 1 {
		t.Fatalf("episodes = %d, want 1", ep)
	}

	for i := 0; i < 4; i++ {
		n.overloadTick(0.1)
	}
	if !n.Overloaded() {
		t.Fatal("recovered after 4/5 exit samples")
	}
	n.overloadTick(0.5) // inside the band: resets the exit streak
	for i := 0; i < 4; i++ {
		n.overloadTick(0.1)
	}
	if !n.Overloaded() {
		t.Fatal("recovered though the exit streak was reset")
	}
	n.overloadTick(0.1)
	if n.Overloaded() {
		t.Fatal("still degraded after 5 consecutive exit samples")
	}

	if ov := n.OverloadSnapshot(); ov.Degraded {
		t.Fatalf("snapshot = %+v, want healthy", ov)
	}
}

// TestOverloadAdmissionControl: while degraded, best-effort publishes are
// refused with ErrBackpressure and counted, reliable publishes are always
// admitted, and recovery restores best-effort admission.
func TestOverloadAdmissionControl(t *testing.T) {
	net := transport.NewMemNetwork()
	n := New(net.NextEndpoint(), quietOverloadConfig(10, nil, 1))
	n.Start()
	defer n.Close()
	if err := n.CreateGroupMode("be", wire.BestEffort); err != nil {
		t.Fatal(err)
	}
	if err := n.CreateGroupMode("rel", wire.Reliable); err != nil {
		t.Fatal(err)
	}

	forceDegraded(n, true)
	if err := n.Publish("be", []byte("x")); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("degraded best-effort publish err = %v, want ErrBackpressure", err)
	}
	if err := n.Publish("rel", []byte("x")); err != nil {
		t.Fatalf("degraded reliable publish err = %v, want admitted", err)
	}
	if got := n.Stats().PublishRejects; got != 1 {
		t.Fatalf("publish rejects = %d, want 1", got)
	}

	forceDegraded(n, false)
	if err := n.Publish("be", []byte("x")); err != nil {
		t.Fatalf("recovered best-effort publish err = %v", err)
	}
}

// TestOverloadRelayShed exercises the graceful-degradation policy at the
// forwarding hop: a degraded interior node still delivers best-effort
// payloads locally but sheds the downstream fan-out, while reliable payloads
// are always relayed.
func TestOverloadRelayShed(t *testing.T) {
	net := transport.NewMemNetwork()
	relay := New(net.NextEndpoint(), quietOverloadConfig(10, nil, 1))
	child := net.NextEndpoint()
	defer child.Close()

	var delivered atomic.Uint64
	relay.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
		delivered.Add(1)
	})
	// Hand-build the tree position: a member with one downstream child, so
	// the forwarding decision is isolated from topology formation.
	install := func(gid string, mode wire.DeliveryMode) {
		gs := newGroupState(mode)
		gs.member = true
		gs.children[child.Addr()] = wire.PeerInfo{Addr: child.Addr()}
		relay.groups[gid] = gs
	}
	install("be", wire.BestEffort)
	install("rel", wire.Reliable)

	forceDegraded(relay, true)
	src := wire.PeerInfo{Addr: "src"}
	stepAt(relay, time.Now(), event{msg: &wire.Message{
		Type: wire.TPayload, From: src, GroupID: "be", Seq: 1,
		Mode: wire.BestEffort, Data: []byte("x"),
	}})
	// The delivery reaches the handler on its own goroutine.
	waitFor(t, testTimeout, func() bool { return delivered.Load() > 0 },
		static("no local delivery (shedding must not touch local delivery)"))
	if got := delivered.Load(); got != 1 {
		t.Fatalf("local deliveries = %d, want 1", got)
	}
	if got := relay.Stats().RelaySheds; got != 1 {
		t.Fatalf("relay sheds = %d, want 1", got)
	}
	select {
	case msg := <-child.Recv():
		t.Fatalf("degraded relay forwarded best-effort payload %v downstream", msg.Type)
	case <-time.After(50 * time.Millisecond):
	}

	stepAt(relay, time.Now(), event{msg: &wire.Message{
		Type: wire.TPayload, From: src, GroupID: "rel", Seq: 1,
		Mode: wire.Reliable, Data: []byte("x"),
	}})
	select {
	case msg := <-child.Recv():
		if msg.Type != wire.TPayload || msg.Mode != wire.Reliable {
			t.Fatalf("forwarded %v/%v, want reliable payload", msg.Type, msg.Mode)
		}
	case <-time.After(testTimeout):
		t.Fatal("degraded relay shed a reliable payload")
	}
	if got := relay.Stats().RelaySheds; got != 1 {
		t.Fatalf("relay sheds = %d after reliable forward, want still 1", got)
	}

	// Recovery restores best-effort fan-out.
	forceDegraded(relay, false)
	stepAt(relay, time.Now(), event{msg: &wire.Message{
		Type: wire.TPayload, From: src, GroupID: "be", Seq: 2,
		Mode: wire.BestEffort, Data: []byte("y"),
	}})
	select {
	case <-child.Recv():
	case <-time.After(testTimeout):
		t.Fatal("recovered relay still shedding best-effort payloads")
	}
	_ = relay.Close()
}

// TestPendingReqSweep is the leak bound on the loop's call table: requests
// that fail — a probe of a dead contact timing out, a Join of an unknown
// group, a DHT query to a dead contact — leave no entry behind.
func TestPendingReqSweep(t *testing.T) {
	net := transport.NewMemNetwork()
	n := New(net.NextEndpoint(), DefaultConfig(10, nil, 1))
	n.Start()
	defer n.Close()
	// Reachable but never read: every request to it times out.
	dead := net.NextEndpoint()
	defer dead.Close()

	if err := n.Bootstrap([]string{dead.Addr()}, 60*time.Millisecond); err == nil {
		t.Fatal("bootstrap through a dead contact succeeded")
	}
	if err := n.Join("nowhere", 50*time.Millisecond); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("join of an unknown group err = %v, want ErrJoinFailed", err)
	}
	c := dht.Contact{ID: dht.NodeID(dead.Addr()), Info: wire.PeerInfo{Addr: dead.Addr()}}
	err := n.await(func(done func(error)) {
		n.dhtQuery(c, n.dht.id, "", func(r dht.Reply) { done(r.Err) })
	})
	if err == nil {
		t.Fatal("DHT query to a dead contact succeeded")
	}
	if got := n.MetricsSnapshot().Gauges["pending_requests"]; got != 0 {
		t.Fatalf("pending = %v after failed requests, want 0", got)
	}
}

// TestPendingReqSweepLoop is the loop half of the same bound: the loop
// routes every reply, so a duplicate reply, a late one, and one for an ID
// never issued must be dropped without blocking the loop or re-creating an
// entry — and calls due at the same instant time out in ReqID order.
func TestPendingReqSweepLoop(t *testing.T) {
	net := transport.NewMemNetwork()
	cfg := DefaultConfig(10, nil, 1)
	cfg.HeartbeatInterval = 0
	cfg.DisableDHT = true
	n := New(net.NextEndpoint(), cfg)
	n.Start()
	defer n.Close()
	peer := net.NextEndpoint()
	defer peer.Close()
	reply := func(id uint64) {
		t.Helper()
		msg := wire.Message{Type: wire.TProbeResp, From: wire.PeerInfo{Addr: peer.Addr()}, ReqID: id}
		if err := peer.Send(n.Addr(), msg); err != nil {
			t.Fatal(err)
		}
	}
	// probe asks peer once and returns the request's ID; every reply the
	// call accepts is counted on replies.
	replies := make(chan uint64, 16)
	probe := func() uint64 {
		t.Helper()
		var id uint64
		n.post(func() {
			n.ask([]string{peer.Addr()}, wire.Message{Type: wire.TProbe}, time.Hour,
				func(m wire.Message) bool { replies <- m.ReqID; return true },
				func() { t.Error("probe timed out") })
			id = n.reqSeq
		})
		return id
	}
	// The marker reply is sent last on the same class; once it is routed,
	// every reply before it has been through the loop too.
	await := func(want uint64) {
		t.Helper()
		select {
		case got := <-replies:
			if got != want {
				t.Fatalf("routed reply %d, want %d", got, want)
			}
		case <-time.After(testTimeout):
			t.Fatal("loop stalled: marker reply never routed")
		}
	}

	first := probe()
	reply(first)
	reply(first) // duplicate
	marker := probe()
	reply(first) // late
	reply(marker + 1000)
	reply(marker)
	await(first)
	await(marker)
	select {
	case id := <-replies:
		t.Fatalf("reply %d routed after its call finished", id)
	default:
	}
	if got := n.MetricsSnapshot().Gauges["pending_requests"]; got != 0 {
		t.Fatalf("pending = %v after late replies, want 0", got)
	}

	// Calls due at the same instant fire in ReqID order, whatever the map
	// iteration order of the table.
	const same = 16
	fired := make(chan uint64, same)
	n.post(func() {
		at := time.Now().Add(20 * time.Millisecond)
		for i := 0; i < same; i++ {
			id := n.reqSeq + 1
			n.after(time.Hour, func() { fired <- id })
			n.calls[id].deadline = at
		}
	})
	var order []uint64
	for len(order) < same {
		select {
		case id := <-fired:
			order = append(order, id)
		case <-time.After(testTimeout):
			t.Fatalf("%d of %d same-deadline calls fired", len(order), same)
		}
	}
	for i := 1; i < same; i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("same-deadline calls fired out of ReqID order: %v", order)
		}
	}
	if got := n.MetricsSnapshot().Gauges["pending_requests"]; got != 0 {
		t.Fatalf("pending = %v after every call fired, want 0", got)
	}
}

// TestControlPlaneSurvivesPayloadFlood is the node-level starvation
// regression (the transport-level counterpart lives in
// transport/inbox_test.go): a best-effort payload flood at ~10x the inbox
// capacity against a slow consumer must shed only best-effort traffic —
// heartbeats, beacons, and the group's control plane ride the priority
// classes and survive, so the overlay neither suspects peers nor starts a
// succession.
func TestControlPlaneSurvivesPayloadFlood(t *testing.T) {
	net := transport.NewMemNetwork()
	const inboxCap = 16
	net.SetInboxPolicy(inboxCap, false)

	a := New(net.NextEndpoint(), DefaultConfig(100, coords.Point{0, 0}, 1))
	bcfg := DefaultConfig(10, coords.Point{10, 10}, 2)
	bcfg.HeartbeatInterval = 100 * time.Millisecond
	// The slow consumer: b's loop stalls on every payload it takes in, so
	// the flood overruns the 16-slot inbox by an order of magnitude. (A slow
	// handler no longer does: it runs off the loop.)
	bcfg.Tracer = trace.New(64, stallingSink(2*time.Millisecond))
	b := New(net.NextEndpoint(), bcfg)
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	if err := a.Bootstrap(nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap([]string{a.Addr()}, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := a.CreateGroupMode("flood", wire.BestEffort); err != nil {
		t.Fatal(err)
	}
	if err := a.Advertise("flood"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, func() bool {
		return b.Join("flood", 200*time.Millisecond) == nil
	}, static("b could not join"))

	const flood = 10 * inboxCap
	for i := 0; i < flood; i++ {
		if err := a.Publish("flood", []byte("payload")); err != nil &&
			!errors.Is(err, ErrBackpressure) {
			t.Fatal(err)
		}
	}

	// The flood must shed — and shed only best-effort.
	waitFor(t, testTimeout, func() bool {
		return b.Stats().Transport.BestEffortSheds > 0
	}, static("flood at 10x inbox capacity shed nothing"))
	ds := b.Stats().Transport
	if ds.ControlSheds != 0 {
		t.Fatalf("flood shed %d control messages; priority classes failed", ds.ControlSheds)
	}
	if ds.ReliableSheds != 0 {
		t.Fatalf("flood shed %d reliable messages", ds.ReliableSheds)
	}

	// Control-plane survival: heartbeats kept flowing through the flood, so
	// the overlay link is intact and the group saw no succession.
	waitFor(t, testTimeout, func() bool {
		return a.NumNeighbors() >= 1 && b.NumNeighbors() >= 1
	}, static("overlay link lost during the flood"))
	for _, td := range a.TreeDetails() {
		if td.Group == "flood" && (td.Epoch != 1 || td.Promoted) {
			t.Fatalf("flood triggered a succession: epoch=%d promoted=%v", td.Epoch, td.Promoted)
		}
	}
}

// stallingSink is a trace sink that stalls the recording loop for the given
// time on every payload the node takes in, as a synchronous log on a
// saturated disk would.
type stallingSink time.Duration

func (d stallingSink) Record(ev trace.Event) {
	if ev.Kind == trace.KindRecv && ev.Msg == wire.TPayload.String() {
		time.Sleep(time.Duration(d))
	}
}
