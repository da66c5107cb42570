package node

import (
	"flag"
	"fmt"
	"math"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// This file holds the telemetry plane's two overhead gates
// (docs/OBSERVABILITY.md, "Overhead gates"):
//
//  1. Wire overhead, always on (TestDigestPiggybackWithinBudget): the health
//     piggyback (own digest + default gossip fan-in) must add at most
//     digestByteBudget bytes to an encoded heartbeat — telemetry must stay
//     a rounding error next to a payload.
//  2. CPU overhead, a timing gate and therefore opt-in with -timing-gates
//     (TestTelemetryPublishOverhead; CI runs it in its own step): publish
//     ns/op on a live cluster with telemetry enabled must stay within
//     publishOverheadBudget of the same cluster with DisableTelemetry
//     (minimum over interleaved rounds per side, damping scheduler noise).
//     The publish path itself never touches telemetry — digests ride the
//     heartbeat plane — so the honest ratio is ~1.0.

var timingGates = flag.Bool("timing-gates", false,
	"run the wall-clock overhead gates (noisy on a loaded machine, so not part of tier-1)")

const (
	// digestByteBudget is the acceptance bound on piggyback bytes per
	// beacon/heartbeat.
	digestByteBudget = 128
	// publishOverheadBudget is the allowed telemetered/untelemetered publish
	// latency ratio (1.05 = within 5%).
	publishOverheadBudget = 1.05
	// publishBenchRounds is how many interleaved benchmark runs feed each
	// side's minimum.
	publishBenchRounds = 5
)

// benchHeartbeat is a realistic heartbeat message to measure the health
// piggyback against.
func benchHeartbeat() wire.Message {
	return wire.Message{
		Type: wire.THeartbeat,
		From: wire.PeerInfo{
			Addr:     "203.0.113.17:7001",
			Coord:    []float64{41.25, -73.5, 12.0},
			Capacity: 100,
		},
		Epoch:  123456,
		SentAt: time.Unix(1754000000, 123456789),
	}
}

// benchDigests is the default piggyback: the sender's own digest plus the
// DefaultTelemetryGossip relayed ones, every field populated with
// full-width values so the measurement is an upper bound.
func benchDigests() []wire.HealthDigest {
	out := make([]wire.HealthDigest, 0, 1+DefaultTelemetryGossip)
	for i := 0; i <= DefaultTelemetryGossip; i++ {
		out = append(out, wire.HealthDigest{
			Addr:      fmt.Sprintf("203.0.113.%d:7001", 100+i),
			Epoch:     987654 + uint64(i),
			Utility:   0.81234,
			Pressure:  0.67891,
			P99Ms:     237.25,
			Inbox:     1023,
			Delivered: 18446744073,
			Shed:      99991,
			Degraded:  true,
		})
	}
	return out
}

// measureDigestOverhead encodes the heartbeat with and without the health
// piggyback and returns the bytes the piggyback adds.
func measureDigestOverhead(t *testing.T) int {
	t.Helper()
	base := benchHeartbeat()
	plain, err := wire.EncodeMessage(&base)
	if err != nil {
		t.Fatal(err)
	}
	withHealth := benchHeartbeat()
	withHealth.Health = benchDigests()
	loaded, err := wire.EncodeMessage(&withHealth)
	if err != nil {
		t.Fatal(err)
	}
	return len(loaded) - len(plain)
}

// benchPublishCluster boots a two-node best-effort cluster and returns the
// publisher (telemetry on or off per the flag).
func benchPublishCluster(tb testing.TB, disableTelemetry bool) (*Node, func()) {
	tb.Helper()
	net := transport.NewMemNetwork()
	var nodes []*Node
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig(100, coords.Point{float64(i), 0}, int64(i+1))
		cfg.DisableTelemetry = disableTelemetry
		nd := New(net.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			tb.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	rdv := nodes[0]
	if err := rdv.CreateGroup("bench"); err != nil {
		tb.Fatal(err)
	}
	if err := rdv.Advertise("bench"); err != nil {
		tb.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := nodes[1].Join("bench", 3*time.Second); err != nil {
		tb.Fatal(err)
	}
	nodes[1].SetPayloadHandler(func(string, wire.PeerInfo, []byte) {})
	return rdv, func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}
}

// runPublishBench measures one publish ns/op sample on a fresh cluster.
func runPublishBench(t *testing.T, disableTelemetry bool) float64 {
	t.Helper()
	rdv, stop := benchPublishCluster(t, disableTelemetry)
	defer stop()
	payload := []byte("0123456789abcdef0123456789abcdef")
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := rdv.Publish("bench", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// TestTelemetryPublishOverhead is the CPU gate. Scheduler and GC
// interference only ever slow a run down, so each side's estimate is the
// minimum over rounds, and the rounds are interleaved so slow-machine drift
// hits both sides equally.
func TestTelemetryPublishOverhead(t *testing.T) {
	if !*timingGates {
		t.Skip("timing gate: run with -timing-gates (CI does, in its own step)")
	}
	off, on := math.Inf(1), math.Inf(1)
	for i := 0; i < publishBenchRounds; i++ {
		off = math.Min(off, runPublishBench(t, true))
		on = math.Min(on, runPublishBench(t, false))
	}
	ratio := on / off
	t.Logf("publish: untelemetered %.0f ns/op, telemetered %.0f ns/op, ratio %.3f (budget %.2f)",
		off, on, ratio, publishOverheadBudget)
	if ratio > publishOverheadBudget {
		t.Errorf("telemetry adds %.1f%% to publish ns/op, budget %.0f%%",
			(ratio-1)*100, (publishOverheadBudget-1)*100)
	}
}

// TestDigestPiggybackWithinBudget is the byte gate; the budget must hold on
// every platform, so it runs in the ordinary test run.
func TestDigestPiggybackWithinBudget(t *testing.T) {
	overhead := measureDigestOverhead(t)
	t.Logf("digest piggyback: %d digests add %d B to a heartbeat (budget %d)",
		1+DefaultTelemetryGossip, overhead, digestByteBudget)
	if overhead > digestByteBudget {
		t.Errorf("health piggyback adds %d bytes per heartbeat, budget %d", overhead, digestByteBudget)
	}
	if overhead <= 0 {
		t.Error("piggyback measured as free; the encoder is not writing Health")
	}
}
