package node

import (
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/wire"
)

func TestStatsAccounting(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	a := c.node(t, DefaultConfig(100, coords.Point{0, 0}, 1))
	b := c.node(t, DefaultConfig(10, coords.Point{10, 10}, 2))
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
	c.waitFor(t, testTimeout, func() bool {
		return b.Join("g", 200*time.Millisecond) == nil
	}, static("join failed"))

	delivered := false
	b.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { delivered = true })
	if err := a.Publish("g", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, testTimeout, func() bool { return delivered }, static("payload not delivered"))

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
	a := newDriven(t, 0, 1, nil).node(t, DefaultConfig(10, nil, 1))
	s := a.Stats()
	s.Sent["probe"] = 999
	if a.Stats().Sent["probe"] == 999 {
		t.Fatal("stats snapshot aliases internal state")
	}
}
