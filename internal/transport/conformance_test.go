package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// The conformance suite checks the Transport contract every implementation
// must honour — MemNetwork endpoints, TCP transports, and either wrapped in
// the chaos layer (fault-free and under non-lossy fault rules: added delay,
// jitter, duplicates, reordering must never lose or corrupt messages).

// transportPair builds two endpoints that can reach each other, returning
// them and a cleanup.
type transportPair func(t *testing.T) (a, b Transport)

func conformancePairs() map[string]transportPair {
	memPair := func(t *testing.T) (Transport, Transport) {
		n := NewMemNetwork()
		return n.NextEndpoint(), n.NextEndpoint()
	}
	tcpPair := func(t *testing.T) (Transport, Transport) {
		a, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
		return a, b
	}
	wrap := func(inner transportPair, rule LinkRule) transportPair {
		return func(t *testing.T) (Transport, Transport) {
			a, b := inner(t)
			cn := NewChaosNetwork(3)
			cn.SetDefaultRule(rule)
			return cn.Wrap(a), cn.Wrap(b)
		}
	}
	faulty := LinkRule{
		Delay:     time.Millisecond,
		Jitter:    2 * time.Millisecond,
		Duplicate: 0.3,
		Reorder:   0.2,
	}
	return map[string]transportPair{
		"mem":             memPair,
		"tcp":             tcpPair,
		"mem+chaos":       wrap(memPair, LinkRule{}),
		"tcp+chaos":       wrap(tcpPair, LinkRule{}),
		"mem+chaos-fault": wrap(memPair, faulty),
		"tcp+chaos-fault": wrap(tcpPair, faulty),
	}
}

func TestTransportConformance(t *testing.T) {
	for name, pair := range conformancePairs() {
		t.Run(name, func(t *testing.T) {
			runTransportConformance(t, pair)
		})
	}
}

func runTransportConformance(t *testing.T, pair transportPair) {
	a, b := pair(t)

	// Addresses: non-empty and distinct.
	if a.Addr() == "" || b.Addr() == "" || a.Addr() == b.Addr() {
		t.Fatalf("bad addresses %q / %q", a.Addr(), b.Addr())
	}

	// Round trip with field fidelity, both directions.
	probe := wire.Message{
		Type:    wire.TProbe,
		From:    wire.PeerInfo{Addr: a.Addr(), Coord: []float64{1, 2}, Capacity: 50},
		GroupID: "conformance",
		Data:    []byte("ping"),
		MsgID:   1,
	}
	if err := a.Send(b.Addr(), probe); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b, 2*time.Second)
	if got.Type != probe.Type || got.GroupID != probe.GroupID ||
		string(got.Data) != "ping" || got.From.Capacity != 50 {
		t.Fatalf("corrupted round trip: %+v", got)
	}
	if err := b.Send(a.Addr(), wire.Message{Type: wire.TProbeResp, MsgID: 2}); err != nil {
		t.Fatal(err)
	}
	if back := recvOne(t, a, 2*time.Second); back.Type != wire.TProbeResp {
		t.Fatalf("reverse direction got %+v", back)
	}

	// SendMany, on the transports that offer it: each runs once per
	// address, in order, before the call returns, and every address
	// receives the message.
	if ms, ok := a.(MultiSender); ok {
		addrs := []string{b.Addr(), a.Addr()}
		var called []string
		var returned atomic.Bool
		ms.SendMany(addrs, wire.Message{Type: wire.TPayload, MsgID: 4}, func(addr string, err error) {
			if returned.Load() {
				t.Errorf("SendMany reported %s after it returned", addr)
			}
			if err != nil {
				t.Errorf("SendMany to %s: %v", addr, err)
			}
			called = append(called, addr)
		})
		returned.Store(true)
		if fmt.Sprint(called) != fmt.Sprint(addrs) {
			t.Fatalf("SendMany reported %v, want %v", called, addrs)
		}
		for _, to := range []Transport{b, a} {
			if got := recvOne(t, to, 2*time.Second); got.MsgID != 4 {
				t.Fatalf("SendMany: %s received %+v", to.Addr(), got)
			}
		}
	}

	// A large payload (>64KB — past any single-read framing assumption)
	// survives the trip intact.
	big := make([]byte, 100<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := a.Send(b.Addr(), wire.Message{Type: wire.TPayload, MsgID: 3, Seq: 9, Data: big}); err != nil {
		t.Fatal(err)
	}
	for {
		bigGot := recvOne(t, b, 5*time.Second)
		if bigGot.MsgID != 3 {
			continue // straggler duplicate from the round-trip phase
		}
		if bigGot.Seq != 9 || len(bigGot.Data) != len(big) {
			t.Fatalf("large payload mangled: seq=%d len=%d", bigGot.Seq, len(bigGot.Data))
		}
		for i, c := range bigGot.Data {
			if c != byte(i*7) {
				t.Fatalf("large payload corrupted at byte %d", i)
			}
		}
		break
	}

	// A burst of distinct messages all arrive (duplicates permitted; loss
	// and reordering of the set are not — non-lossy fault rules only).
	const burst = 100
	for i := 0; i < burst; i++ {
		if err := a.Send(b.Addr(), wire.Message{Type: wire.TPayload, MsgID: uint64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	deadline := time.After(5 * time.Second)
	for len(seen) < burst {
		select {
		case msg := <-b.Recv():
			seen[msg.MsgID] = true
		case <-deadline:
			t.Fatalf("burst delivered %d of %d distinct messages", len(seen), burst)
		}
	}

	// Close: idempotent, and sends after close fail with ErrClosed.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if err := b.Send(a.Addr(), wire.Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close err = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}
