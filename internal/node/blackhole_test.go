//go:build linux

package node

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
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

// TestBlackHoledNeighbourKeepsOverlay: a neighbour whose host went silent
// (SYNs dropped) must not stall the loop that heartbeats the healthy
// ones. A's heartbeats to the hole only enqueue, so B keeps hearing A and
// evicts nobody, while A declares the hole dead.
func TestBlackHoledNeighbourKeepsOverlay(t *testing.T) {
	const hb = 100 * time.Millisecond
	mk := func(i int) *Node {
		tcfg := transport.DefaultTCPConfig()
		tcfg.DialTimeout = time.Second
		tr, err := transport.ListenTCPConfig("127.0.0.1:0", tcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(10, coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = hb
		nd := New(tr, cfg)
		nd.Start()
		t.Cleanup(func() { _ = nd.Close() })
		return nd
	}
	a, b := mk(0), mk(1)
	if err := a.Bootstrap(nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap([]string{a.Addr()}, testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, func() bool { return a.NumNeighbors() == 1 && b.NumNeighbors() == 1 },
		static("A and B never became neighbours"))

	hole := blackHole(t)
	a.post(func() { a.addNeighbor(wire.PeerInfo{Addr: hole}) })

	hasNeighbor := func(nd *Node, addr string) bool {
		for _, nb := range nd.Neighbors() {
			if nb.Addr == addr {
				return true
			}
		}
		return false
	}
	for end := time.Now().Add(4 * time.Second); time.Now().Before(end); time.Sleep(hb / 4) {
		if dead := b.Stats().NeighborsDeclaredDead; dead != 0 || !hasNeighbor(b, a.Addr()) {
			t.Fatalf("B declared %d neighbours dead and has A: %v; A's loop stalled on the hole",
				dead, hasNeighbor(b, a.Addr()))
		}
	}
	if hasNeighbor(a, hole) || a.Stats().NeighborsDeclaredDead == 0 {
		t.Fatalf("A kept the hole (dead count %d)", a.Stats().NeighborsDeclaredDead)
	}
}
