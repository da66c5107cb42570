package transport

import (
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

// TestCoalesceSharesFrames proves beacons and digests written back-to-back
// travel in fewer container frames than messages, and all arrive intact.
func TestCoalesceSharesFrames(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.CoalesceWindow = 20 * time.Millisecond
	a, b := tcpPairConfig(t, cfg)

	const rounds = 10
	for i := 0; i < rounds; i++ {
		beacon := wire.Message{Type: wire.TBeacon, GroupID: "g", Epoch: uint64(i + 1),
			From: wire.PeerInfo{Addr: a.Addr(), Capacity: 10}}
		digest := wire.Message{Type: wire.TDigest, GroupID: "g", MsgID: uint64(i + 1),
			Digest: []wire.DigestEntry{{Source: a.Addr(), High: uint64(i)}}}
		if err := a.Send(b.Addr(), beacon); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(b.Addr(), digest); err != nil {
			t.Fatal(err)
		}
	}

	var beacons, digests int
	deadline := time.After(5 * time.Second)
	for beacons < rounds || digests < rounds {
		select {
		case msg := <-b.Recv():
			switch msg.Type {
			case wire.TBeacon:
				beacons++
			case wire.TDigest:
				digests++
			}
		case <-deadline:
			t.Fatalf("got %d beacons, %d digests of %d each", beacons, digests, rounds)
		}
	}
	cs := a.CoalesceStats()
	if cs.Msgs != 2*rounds {
		t.Fatalf("coalesced msgs = %d, want %d", cs.Msgs, 2*rounds)
	}
	if cs.Frames >= cs.Msgs {
		t.Fatalf("no batching happened: %d frames for %d msgs", cs.Frames, cs.Msgs)
	}
}

// TestCoalesceOrderingWithPayloads: a payload sent after a buffered beacon
// must flush the beacon first — the receiver sees per-link FIFO order.
func TestCoalesceOrderingWithPayloads(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.CoalesceWindow = time.Hour // only explicit flushes
	a, b := tcpPairConfig(t, cfg)

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

// TestCoalesceTimerFlush: a lone buffered digest is flushed by the window
// timer without any follow-up traffic.
func TestCoalesceTimerFlush(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.CoalesceWindow = 5 * time.Millisecond
	a, b := tcpPairConfig(t, cfg)

	msg := wire.Message{Type: wire.TDigest, GroupID: "g",
		Digest: []wire.DigestEntry{{Source: "s", High: 3}}}
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b, 2*time.Second)
	if got.Type != wire.TDigest || got.Digest[0].High != 3 {
		t.Fatalf("timer flush delivered %+v", got)
	}
}

// TestCoalesceSizeFlush: pending bytes past the limit flush immediately,
// before the timer.
func TestCoalesceSizeFlush(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.CoalesceWindow = time.Hour
	cfg.CoalesceLimit = 256
	a, b := tcpPairConfig(t, cfg)

	big := wire.Message{Type: wire.TBeacon, GroupID: "g", Epoch: 1,
		Deputies: []wire.PeerInfo{
			{Addr: "deputy-1:7000", Coord: []float64{1, 2, 3}},
			{Addr: "deputy-2:7000", Coord: []float64{4, 5, 6}},
			{Addr: "deputy-3:7000", Coord: []float64{7, 8, 9}},
			{Addr: "deputy-4:7000", Coord: []float64{1, 2, 3}},
			{Addr: "deputy-5:7000", Coord: []float64{4, 5, 6}},
		}}
	for i := 0; i < 3; i++ {
		if err := a.Send(b.Addr(), big); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if got := recvOne(t, b, 2*time.Second); got.Type != wire.TBeacon {
			t.Fatalf("size flush delivered %+v", got)
		}
	}
}

// TestSendManyTCP: one encode, many links, every destination receives the
// identical message over the binary wire version.
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
	if results[2] == nil {
		t.Fatal("dead link reported success")
	}
	for _, ep := range []*TCPTransport{c, d} {
		got := recvOne(t, ep, 2*time.Second)
		if got.Type != wire.TPayload || string(got.Data) != "fan-out payload" ||
			got.From.Capacity != 9 || got.Seq != 4 {
			t.Fatalf("fan-out corrupted at %s: %+v", ep.Addr(), got)
		}
	}
}
