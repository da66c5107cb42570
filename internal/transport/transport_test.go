package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"groupcast/internal/wire"
)

func recvOne(t *testing.T, tr Transport, timeout time.Duration) wire.Message {
	t.Helper()
	select {
	case msg, ok := <-tr.Recv():
		if !ok {
			t.Fatal("inbox closed")
		}
		return msg
	case <-time.After(timeout):
		t.Fatal("timed out waiting for message")
	}
	return wire.Message{}
}

func TestMemNetworkBasics(t *testing.T) {
	n := NewMemNetwork()
	a := n.NextEndpoint()
	b := n.NextEndpoint()
	if a.Addr() == b.Addr() {
		t.Fatal("duplicate generated addresses")
	}
	msg := wire.Message{Type: wire.TProbe, From: wire.PeerInfo{Addr: a.Addr()}}
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b, time.Second)
	if got.Type != wire.TProbe || got.From.Addr != a.Addr() {
		t.Fatalf("got %+v", got)
	}
}

func TestMemNetworkNamedEndpointsAndDuplicates(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.Endpoint("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("x"); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

func TestMemNetworkUnknownDestination(t *testing.T) {
	n := NewMemNetwork()
	a := n.NextEndpoint()
	if err := a.Send("nowhere", wire.Message{}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemNetworkLatency(t *testing.T) {
	n := NewMemNetwork()
	n.SetLatency(func(from, to string) time.Duration { return 30 * time.Millisecond })
	a := n.NextEndpoint()
	b := n.NextEndpoint()
	start := time.Now()
	if err := a.Send(b.Addr(), wire.Message{Type: wire.TProbe}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered in %v despite 30ms latency", elapsed)
	}
}

func TestMemEndpointClose(t *testing.T) {
	n := NewMemNetwork()
	a := n.NextEndpoint()
	b := n.NextEndpoint()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if err := b.Send(a.Addr(), wire.Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close err = %v", err)
	}
	// Sending to a departed endpoint reports unknown.
	if err := a.Send(b.Addr(), wire.Message{}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v", err)
	}
	// Inbox must be closed.
	if _, ok := <-b.Recv(); ok {
		t.Fatal("closed endpoint inbox still open")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	msg := wire.Message{
		Type:    wire.TAdvertise,
		From:    wire.PeerInfo{Addr: a.Addr(), Capacity: 100, Coord: []float64{1, 2}},
		GroupID: "demo",
		TTL:     7,
		Data:    []byte("hello"),
	}
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b, 2*time.Second)
	if got.GroupID != "demo" || string(got.Data) != "hello" || got.From.Capacity != 100 {
		t.Fatalf("got %+v", got)
	}
	// Reply over the reverse direction (separate connection).
	if err := b.Send(got.From.Addr, wire.Message{Type: wire.TProbeResp}); err != nil {
		t.Fatal(err)
	}
	back := recvOne(t, a, 2*time.Second)
	if back.Type != wire.TProbeResp {
		t.Fatalf("got %+v", back)
	}
}

func TestTCPTransportConnectionReuseAndMany(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(b.Addr(), wire.Message{Type: wire.TPayload, MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	deadline := time.After(5 * time.Second)
	for len(seen) < count {
		select {
		case msg := <-b.Recv():
			seen[msg.MsgID] = true
		case <-deadline:
			t.Fatalf("received %d of %d", len(seen), count)
		}
	}
}

func TestTCPTransportSendAfterClose(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if err := a.Send("127.0.0.1:1", wire.Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

// TestTCPTransportDialFailure: Send only enqueues, so a send to a port
// nobody listens on returns nil at once; the link's writer then fails the
// dial, which counts the frame as a FabricDrop and the peer's breaker a
// failure.
func TestTCPTransportDialFailure(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const dead = "127.0.0.1:1"
	if err := a.Send(dead, wire.Message{}); err != nil {
		t.Fatalf("Send to a dead port: %v, want nil (the writer dials)", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		brks := a.Breakers()
		if a.DropStats().FabricDrops >= 1 && len(brks) == 1 && brks[0].Addr == dead && brks[0].Failures >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("FabricDrops = %d, breakers %+v: want the failed dial counted", a.DropStats().FabricDrops, brks)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPTransportDropsHostileConnection: a connection whose first frame
// does not start 'G' 'C' 0x02 — a frame of the retired gob dialect, a wrong
// magic, a version byte of 1 — is closed by the reader without delivering
// anything, and the endpoint keeps serving its well-behaved peers.
func TestTCPTransportDropsHostileConnection(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Send(a.Addr(), wire.Message{Type: wire.TPayload, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a, 2*time.Second); got.Seq != 1 {
		t.Fatalf("got %+v", got)
	}
	for name, hostile := range map[string][]byte{
		"former gob frame": {0x00, 0x00, 0x03, 0x7b, 0xfe, 0x01, 0x69, 0x7f, 0x03, 0x01, 0x01, 0x07, 'M', 'e', 's', 's'},
		"wrong magic":      {'G', 'X', 0x02, byte(wire.TPayload), 0x02, 0x00, 0x00, 0x00, 0x00, 0x00},
		"version byte 1":   {'G', 'C', 0x01, byte(wire.TPayload), 0x02, 0x00, 0x00, 0x00, 0x00, 0x00},
	} {
		conn, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hostile); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		// The drop shows as EOF, or as a reset when the peer closed with
		// bytes past the header still unread; a timeout means it kept the link.
		var ne net.Error
		if _, err := conn.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Errorf("%s: read on the hostile connection returned %v, want it dropped by the peer", name, err)
		}
		conn.Close()
	}
	// b's link opened before the hostile connections and still works; the
	// next message in a's inbox is b's, not anything decoded from them.
	if err := b.Send(a.Addr(), wire.Message{Type: wire.TPayload, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a, 2*time.Second); got.Seq != 2 {
		t.Fatalf("after hostile connections got %+v, want b's Seq 2", got)
	}
}

func TestWireTypeStrings(t *testing.T) {
	types := []wire.Type{
		wire.TProbe, wire.TProbeResp, wire.TConnect, wire.TBackConnect,
		wire.TBackAccept, wire.TAdvertise, wire.TJoin, wire.TSearch,
		wire.TSearchHit, wire.TPayload, wire.TLeave, wire.THeartbeat,
		wire.THeartbeatAck,
	}
	seen := make(map[string]bool)
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
	if wire.Type(99).String() == "" {
		t.Fatal("unknown type has empty name")
	}
}

func TestTCPTransportReconnectsAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := b.Addr()
	if err := a.Send(addrB, wire.Message{Type: wire.TProbe}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 2*time.Second)
	// Kill b; a's cached connection is now dead.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart a listener on the same address.
	b2, err := ListenTCP(addrB)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrB, err)
	}
	defer b2.Close()
	// Writes to the dead cached connection may "succeed" until the OS
	// reports the reset, at which point the link's writer fails it and the
	// next Send makes a new link. Keep sending until one arrives.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = a.Send(addrB, wire.Message{Type: wire.TPayload})
		select {
		case msg, ok := <-b2.Recv():
			if !ok {
				t.Fatal("inbox closed")
			}
			if msg.Type != wire.TPayload {
				t.Fatalf("got %+v", msg)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no message arrived after peer restart")
		}
	}
}
