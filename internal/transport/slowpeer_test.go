package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// neverReadListener accepts connections and never reads from them: from the
// sender's side the peer is alive and dialable, but once the kernel socket
// buffers fill, every write stalls — the canonical slow peer.
type neverReadListener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newNeverReadListener(t *testing.T) *neverReadListener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &neverReadListener{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			l.mu.Lock()
			l.conns = append(l.conns, conn)
			l.mu.Unlock()
		}
	}()
	t.Cleanup(l.close)
	return l
}

func (l *neverReadListener) addr() string { return l.ln.Addr().String() }

func (l *neverReadListener) close() {
	l.ln.Close()
	l.mu.Lock()
	for _, c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
}

// TestSlowPeerDoesNotBlockFanOut is the memory-safety and isolation core of
// the overload plane: SendMany to a stalled peer plus a healthy one must
// deliver to the healthy link promptly, keep the caller non-blocking (the
// bounded send queue rejects instead of buffering without limit), and
// convert the stalled link's loss into accounted drops and breaker trips.
func TestSlowPeerDoesNotBlockFanOut(t *testing.T) {
	slow := newNeverReadListener(t)

	cfg := DefaultTCPConfig()
	cfg.WriteTimeout = 250 * time.Millisecond
	cfg.SendQueueLen = 4
	cfg.BreakerThreshold = 3
	cfg.BreakerBackoff = 200 * time.Millisecond
	a, err := ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Large payloads fill the kernel socket buffers toward the stalled peer
	// quickly, wedging its writer goroutine.
	const rounds = 40
	msg := wire.Message{
		Type: wire.TPayload, GroupID: "g",
		Data: make([]byte, 256<<10),
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		msg.MsgID = uint64(i)
		a.SendMany([]string{slow.addr(), b.Addr()}, msg, nil)
		// Pace under the healthy link's drain rate (the tiny 4-slot queue
		// bounds it too); the stalled link wedges regardless once the kernel
		// buffers fill.
		time.Sleep(10 * time.Millisecond)
	}
	elapsed := time.Since(start)
	// The old synchronous path would hold every fan-out behind the stalled
	// link's write deadline; the bounded queue + breaker must keep the whole
	// burst far under that.
	if elapsed > 5*time.Second {
		t.Fatalf("fan-out burst took %v with one stalled link", elapsed)
	}

	// The healthy link got every message.
	received := 0
	timeout := time.After(10 * time.Second)
	for received < rounds {
		select {
		case got := <-b.Recv():
			if got.Type == wire.TPayload {
				received++
			}
		case <-timeout:
			t.Fatalf("healthy link received %d/%d messages behind a stalled sibling", received, rounds)
		}
	}

	// The stalled link's loss is accounted, not silent.
	ds := a.DropStats()
	if ds.SendQueueDrops+ds.BreakerRejects+ds.FabricDrops == 0 {
		t.Fatalf("stalled link lost frames without accounting: %+v", ds)
	}
}
