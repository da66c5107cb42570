package node

import (
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

func TestStatsAccounting(t *testing.T) {
	net := transport.NewMemNetwork()
	a := New(net.NextEndpoint(), DefaultConfig(100, coords.Point{0, 0}, 1))
	b := New(net.NextEndpoint(), DefaultConfig(10, coords.Point{10, 10}, 2))
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	_ = a.Bootstrap(nil, time.Second)
	if err := b.Bootstrap([]string{a.Addr()}, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := a.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, func() bool {
		return b.Join("g", 200*time.Millisecond) == nil
	}, static("join failed"))

	delivered := make(chan struct{}, 1)
	b.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
		select {
		case delivered <- struct{}{}:
		default:
		}
	})
	if err := a.Publish("g", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(testTimeout):
		t.Fatal("payload not delivered")
	}

	as := a.Stats()
	bs := b.Stats()
	if as.Sent["payload"] == 0 {
		t.Fatalf("a sent stats: %+v", as.Sent)
	}
	if bs.Received["payload"] == 0 {
		t.Fatalf("b received stats: %+v", bs.Received)
	}
	if bs.Delivered != 1 {
		t.Fatalf("b delivered = %d, want 1", bs.Delivered)
	}
	if bs.Received["probe-resp"] == 0 {
		t.Fatalf("bootstrap probes unaccounted: %+v", bs.Received)
	}
	// Advertisement dedup on a two-node overlay generates no duplicates,
	// but the counters must at least be readable.
	_ = as.DuplicatesDropped
}

func TestStatsSnapshotIsolated(t *testing.T) {
	net := transport.NewMemNetwork()
	a := New(net.NextEndpoint(), DefaultConfig(10, nil, 1))
	a.Start()
	defer a.Close()
	s := a.Stats()
	s.Sent["probe"] = 999
	if a.Stats().Sent["probe"] == 999 {
		t.Fatal("stats snapshot aliases internal state")
	}
}
