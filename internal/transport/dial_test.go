//go:build linux

package transport

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// blackHole returns the address of a loopback listener that never answers
// a SYN: its backlog is 0 and its one accept-queue slot is taken, so the
// kernel drops every further SYN and a dial hangs until its timeout.
func blackHole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; i < 8; i++ {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr // the queue is full: SYNs are dropped from here on
		}
		t.Cleanup(func() { conn.Close() })
	}
	t.Fatalf("%s kept accepting connections", addr)
	return ""
}

// TestTCPSendNeverWaitsOnDial: Send only enqueues. Sends to a peer that
// never answers a SYN return at once, the link's writer fails the dial
// when it times out (a FabricDrop and a breaker failure), and Close does
// not wait on a dial in progress.
func TestTCPSendNeverWaitsOnDial(t *testing.T) {
	hole := blackHole(t)
	cfg := DefaultTCPConfig()
	cfg.DialTimeout = 300 * time.Millisecond
	a, err := ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	msg := wire.Message{Type: wire.THeartbeat}
	for i := 0; i < 4; i++ {
		start := time.Now()
		err := a.Send(hole, msg)
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Fatalf("send %d took %v (err %v), want under 50ms: Send waited on the dial", i, took, err)
		}
		if err != nil && !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		brks := a.Breakers()
		if a.DropStats().FabricDrops >= 1 && len(brks) == 1 && brks[0].Failures >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("FabricDrops = %d, breakers %+v: the timed-out dial was not counted",
				a.DropStats().FabricDrops, brks)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh link is dialling again; Close must not wait for it.
	if err := a.Send(hole, msg); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with a dial pending, want under 100ms", took)
	}
}
