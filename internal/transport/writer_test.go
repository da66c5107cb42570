package transport

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// tcpPairConfig builds two connected TCP endpoints with explicit configs.
func tcpPairConfig(t *testing.T, cfg TCPConfig) (a, b *TCPTransport) {
	t.Helper()
	a, err := ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err = ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

// gatedConn holds the first write on a real connection until the test
// opens the gate, so frames sent meanwhile queue behind a busy writer.
type gatedConn struct {
	net.Conn
	entered chan struct{} // closed when the first write starts
	gate    chan struct{} // closed by open
	once    sync.Once
	opened  sync.Once
}

func (g *gatedConn) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.Conn.Write(p)
}

func (g *gatedConn) open() { g.opened.Do(func() { close(g.gate) }) }

// gatedLink makes a's link to a bare listener dial a gated connection and
// returns it with a reader of the frames in the order they crossed the
// wire (a TCPTransport peer would reorder them by class in its inbox). The
// gate starts closed; the test's cleanup opens it so Close never waits on
// it.
func gatedLink(t *testing.T, a *TCPTransport) (*gatedConn, *wire.FrameReader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	g := &gatedConn{Conn: raw, entered: make(chan struct{}), gate: make(chan struct{})}
	dial := a.dialContext
	a.dialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if addr == g.addr() {
			return g, nil
		}
		return dial(ctx, network, addr)
	}
	t.Cleanup(g.open)
	return g, wire.NewFrameReader(peer)
}

// busyWriter sends one payload over the gated link and waits until the
// link's writer is blocked writing it.
func busyWriter(t *testing.T, a *TCPTransport, g *gatedConn) {
	t.Helper()
	if err := a.Send(g.addr(), payloadMsg(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never started the first write")
	}
}

func (g *gatedConn) addr() string { return g.RemoteAddr().String() }

func payloadMsg(id uint64) wire.Message {
	return wire.Message{Type: wire.TPayload, GroupID: "g", Mode: wire.Reliable,
		MsgID: id, Data: []byte("data")}
}

func heartbeatMsg(id uint64) wire.Message {
	return wire.Message{Type: wire.THeartbeat, MsgID: id}
}

// readIDs reads n frames and returns their MsgIDs in wire order.
func readIDs(t *testing.T, fr *wire.FrameReader, n int) []uint64 {
	t.Helper()
	ids := make([]uint64, 0, n)
	for len(ids) < n {
		var msg wire.Message
		if err := fr.ReadMessage(&msg); err != nil {
			t.Fatalf("frame %d: %v", len(ids), err)
		}
		ids = append(ids, msg.MsgID)
	}
	return ids
}

// TestLinkWriterBatchesControlAheadOfData: frames queued while the link's
// writer is busy leave in one write, control frames ahead of earlier-queued
// data, each class in FIFO order, and OutboundQueueDepth counts both
// queues while they wait.
func TestLinkWriterBatchesControlAheadOfData(t *testing.T) {
	a, _ := tcpPairConfig(t, DefaultTCPConfig())
	g, wireOrder := gatedLink(t, a)
	busyWriter(t, a, g)

	sends := []func() error{
		func() error { return a.Send(g.addr(), payloadMsg(1)) },
		func() error { return a.Send(g.addr(), heartbeatMsg(2)) },
		func() error { return a.Send(g.addr(), payloadMsg(3)) },
		func() error {
			var err error
			a.SendMany([]string{g.addr()}, payloadMsg(4), func(_ string, e error) { err = e })
			return err
		},
		func() error { return a.Send(g.addr(), heartbeatMsg(5)) },
	}
	for i, send := range sends {
		if err := send(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := a.OutboundQueueDepth(); got != len(sends) {
		t.Fatalf("OutboundQueueDepth = %d, want %d (both classes)", got, len(sends))
	}
	if cs := a.CoalesceStats(); cs != (CoalesceStats{}) {
		t.Fatalf("CoalesceStats before any batch = %+v, want zero", cs)
	}

	g.open()
	want := []uint64{0, 2, 5, 1, 3, 4}
	if got := readIDs(t, wireOrder, len(want)); !slices.Equal(got, want) {
		t.Fatalf("arrival order %v, want %v (control first, FIFO per class)", got, want)
	}
	// The writer counts the batch after its write returns, which can be
	// after the receiver has decoded it.
	deadline := time.Now().Add(2 * time.Second)
	for a.CoalesceStats().Frames == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cs, want := a.CoalesceStats(), (CoalesceStats{Msgs: uint64(len(sends)), Frames: 1}); cs != want {
		t.Fatalf("CoalesceStats = %+v, want %+v (one write for the queued frames)", cs, want)
	}
	if got := a.OutboundQueueDepth(); got != 0 {
		t.Fatalf("OutboundQueueDepth after the batch = %d, want 0", got)
	}
}

// TestCoalesceSharesFrames proves beacons and digests queued behind a busy
// writer travel in fewer socket writes than messages, and all arrive intact
// and in order.
func TestCoalesceSharesFrames(t *testing.T) {
	a, _ := tcpPairConfig(t, DefaultTCPConfig())
	g, wireOrder := gatedLink(t, a)
	busyWriter(t, a, g)

	const rounds = 10
	for i := 0; i < rounds; i++ {
		beacon := wire.Message{Type: wire.TBeacon, GroupID: "g", Epoch: uint64(i + 1),
			From: wire.PeerInfo{Addr: a.Addr(), Capacity: 10}}
		digest := wire.Message{Type: wire.TDigest, GroupID: "g", MsgID: uint64(i + 1),
			Digest: []wire.DigestEntry{{Source: a.Addr(), High: uint64(i)}}}
		if err := a.Send(g.addr(), beacon); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(g.addr(), digest); err != nil {
			t.Fatal(err)
		}
	}
	g.open()

	var first wire.Message
	if err := wireOrder.ReadMessage(&first); err != nil || first.Type != wire.TPayload {
		t.Fatalf("first frame = %s (%v), want the in-flight payload", first.Type, err)
	}
	var beacons, digests int
	for beacons < rounds || digests < rounds {
		var msg wire.Message
		if err := wireOrder.ReadMessage(&msg); err != nil {
			t.Fatalf("got %d beacons, %d digests of %d each: %v", beacons, digests, rounds, err)
		}
		switch msg.Type {
		case wire.TBeacon:
			beacons++
			if msg.Epoch != uint64(beacons) || msg.From.Capacity != 10 {
				t.Fatalf("beacon %d arrived as %+v", beacons, msg)
			}
		case wire.TDigest:
			digests++
			if msg.MsgID != uint64(digests) || len(msg.Digest) != 1 ||
				msg.Digest[0].High != uint64(digests-1) {
				t.Fatalf("digest %d arrived as %+v", digests, msg)
			}
		default:
			t.Fatalf("unexpected %s frame", msg.Type)
		}
	}
	// The writer counts the batch after its write returns, which can be
	// after the receiver has decoded it.
	deadline := time.Now().Add(2 * time.Second)
	for a.CoalesceStats().Msgs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cs := a.CoalesceStats()
	if cs.Msgs != 2*rounds {
		t.Fatalf("coalesced msgs = %d, want %d", cs.Msgs, 2*rounds)
	}
	if cs.Frames >= cs.Msgs {
		t.Fatalf("no batching happened: %d frames for %d msgs", cs.Frames, cs.Msgs)
	}
}

// TestCoalesceOrderingWithPayloads: a beacon sent before a payload on the
// same link reaches the receiver first.
func TestCoalesceOrderingWithPayloads(t *testing.T) {
	a, b := tcpPairConfig(t, DefaultTCPConfig())

	beacon := wire.Message{Type: wire.TBeacon, GroupID: "g", Epoch: 7}
	payload := wire.Message{Type: wire.TPayload, GroupID: "g", Seq: 1, Data: []byte("p")}
	if err := a.Send(b.Addr(), beacon); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	first := recvOne(t, b, 2*time.Second)
	second := recvOne(t, b, 2*time.Second)
	if first.Type != wire.TBeacon || second.Type != wire.TPayload {
		t.Fatalf("order violated: got %s then %s", first.Type, second.Type)
	}
}

// TestLinkQueueFullShedsDataNotBreaker: a full data queue sheds the frame
// without counting against the peer's breaker, and leaves the control
// queue open; a full control queue is a breaker failure.
func TestLinkQueueFullShedsDataNotBreaker(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.SendQueueLen = 2
	cfg.BreakerThreshold = 1 // any breaker failure opens it
	a, _ := tcpPairConfig(t, cfg)
	g, wireOrder := gatedLink(t, a)
	busyWriter(t, a, g)

	for id := uint64(1); id <= 5; id++ {
		err := a.Send(g.addr(), payloadMsg(id))
		if id <= 2 && err != nil {
			t.Fatalf("payload %d: %v", id, err)
		}
		if id > 2 && !errors.Is(err, ErrSendQueueFull) {
			t.Fatalf("payload %d into a full data queue: got %v, want ErrSendQueueFull", id, err)
		}
	}
	if brks := a.Breakers(); len(brks) != 1 || brks[0].State != "closed" || brks[0].Failures != 0 {
		t.Fatalf("breakers after data sheds = %+v, want closed with 0 failures", brks)
	}
	if got := a.DropStats().SendQueueDrops; got != 3 {
		t.Fatalf("SendQueueDrops = %d, want 3", got)
	}

	for id := uint64(6); id <= 7; id++ {
		if err := a.Send(g.addr(), heartbeatMsg(id)); err != nil {
			t.Fatalf("heartbeat %d behind a full data queue: %v", id, err)
		}
	}
	if err := a.Send(g.addr(), heartbeatMsg(8)); !errors.Is(err, ErrSendQueueFull) {
		t.Fatalf("heartbeat into a full control queue: got %v, want ErrSendQueueFull", err)
	}
	if err := a.Send(g.addr(), heartbeatMsg(9)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("send after a full control queue: got %v, want ErrBreakerOpen", err)
	}

	g.open()
	want := []uint64{0, 6, 7, 1, 2}
	if got := readIDs(t, wireOrder, len(want)); !slices.Equal(got, want) {
		t.Fatalf("arrival order %v, want %v", got, want)
	}
}

// TestSendManyTCP: one encode, many links, every destination receives the
// identical message over the binary wire version. A dead destination's
// link accepts the frame too (Send never dials); its writer's refused dial
// counts the frame as a FabricDrop.
func TestSendManyTCP(t *testing.T) {
	cfg := DefaultTCPConfig()
	a, _ := tcpPairConfig(t, cfg)
	c, err := ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(); _ = d.Close() })

	msg := wire.Message{Type: wire.TPayload, GroupID: "fan", Seq: 4,
		From: wire.PeerInfo{Addr: a.Addr(), Coord: []float64{1, 2}, Capacity: 9},
		Data: []byte("fan-out payload")}
	var results []error
	a.SendMany([]string{c.Addr(), d.Addr(), "127.0.0.1:1"}, msg, func(addr string, err error) {
		results = append(results, err)
	})
	if len(results) != 3 {
		t.Fatalf("callback ran %d times, want 3", len(results))
	}
	if results[0] != nil || results[1] != nil {
		t.Fatalf("live links errored: %v %v", results[0], results[1])
	}
	if results[2] != nil {
		t.Fatalf("dead link's enqueue errored: %v", results[2])
	}
	for _, ep := range []*TCPTransport{c, d} {
		got := recvOne(t, ep, 2*time.Second)
		if got.Type != wire.TPayload || string(got.Data) != "fan-out payload" ||
			got.From.Capacity != 9 || got.Seq != 4 {
			t.Fatalf("fan-out corrupted at %s: %+v", ep.Addr(), got)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.DropStats().FabricDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := a.DropStats().FabricDrops; got != 1 {
		t.Fatalf("FabricDrops = %d, want 1 (the dead link's frame)", got)
	}
}
