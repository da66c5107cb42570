package telemetry

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"groupcast/internal/metrics"
	"groupcast/internal/wire"
)

// TestHistoryDeltasAndRing pins the sampling semantics: counters surface as
// per-epoch deltas, gauges as-is, histograms as quantile summaries with
// delta counts, and the ring keeps only the newest historySamples samples.
func TestHistoryDeltasAndRing(t *testing.T) {
	reg := metrics.NewRegistry()
	var delivered uint64
	reg.Counter("delivered", func() uint64 { return delivered })
	depth := 0.0
	reg.Gauge("inbox_depth", func() float64 { return depth })
	h := reg.Histogram("lat_ms", []float64{1, 10, 100})

	hist := NewHistory()
	t0 := time.Unix(1700000000, 0)

	delivered += 10
	depth = 3
	h.Observe(5)
	s1 := hist.Observe(1, t0, reg.Snapshot())
	if s1.Counters["delivered"] != 10 {
		t.Fatalf("first sample counter = %d, want lifetime 10", s1.Counters["delivered"])
	}
	if s1.Gauges["inbox_depth"] != 3 {
		t.Fatalf("gauge = %v, want 3", s1.Gauges["inbox_depth"])
	}
	if q := s1.Quantiles["lat_ms"]; q.Count != 1 || q.P99 <= 1 || q.P99 > 10 {
		t.Fatalf("first histogram sample = %+v, want count 1 and p99 in (1,10]", q)
	}

	delivered += 7
	s2 := hist.Observe(2, t0.Add(time.Second), reg.Snapshot())
	if s2.Counters["delivered"] != 7 {
		t.Fatalf("second sample counter = %d, want delta 7", s2.Counters["delivered"])
	}
	if q := s2.Quantiles["lat_ms"]; q.Count != 0 {
		t.Fatalf("idle histogram delta count = %d, want 0", q.Count)
	}

	s3 := hist.Observe(3, t0.Add(2*time.Second), reg.Snapshot())
	if s3.Counters["delivered"] != 0 {
		t.Fatalf("third sample counter = %d, want delta 0", s3.Counters["delivered"])
	}
	// Fill the ring one sample past its capacity: epoch 1 is the one evicted.
	last := uint64(historySamples + 1)
	for e := uint64(4); e <= last; e++ {
		hist.Observe(e, t0.Add(time.Duration(e)*time.Second), reg.Snapshot())
	}
	snap := hist.Snapshot()
	if len(snap) != historySamples || snap[0].Epoch != 2 || snap[len(snap)-1].Epoch != last {
		t.Fatalf("ring holds %d samples, epochs %d..%d; want %d samples, epochs 2..%d",
			len(snap), snap[0].Epoch, snap[len(snap)-1].Epoch, historySamples, last)
	}
}

// TestFleetEpochMonotonicAndStale pins the convergence rules: only strictly
// advancing epochs are accepted (replayed relays don't refresh liveness),
// and entries whose digest stops advancing go stale.
func TestFleetEpochMonotonicAndStale(t *testing.T) {
	f := NewFleet("a:1")
	t0 := time.Unix(1700000000, 0)
	// The viewer's own epoch (third argument) is 10 at t0 and 11 a second on.
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "a:1", Epoch: 1}, t0, 10); !ok {
		t.Fatal("first self digest rejected")
	}
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 5, Pressure: 0.5}, t0, 10); !ok {
		t.Fatal("first b digest rejected")
	}
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 5}, t0.Add(time.Second), 11); ok {
		t.Fatal("equal-epoch replay accepted")
	}
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 4}, t0.Add(time.Second), 11); ok {
		t.Fatal("older epoch accepted")
	}
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 6, Pressure: 0.9}, t0.Add(time.Second), 11); !ok {
		t.Fatal("advancing epoch rejected")
	}
	if d, ok := f.Get("b:1"); !ok || d.Epoch != 6 || d.Pressure != 0.9 {
		t.Fatalf("Get(b:1) = %+v, %v", d, ok)
	}

	// Staleness is counted in the viewer's epochs, never in wall time: at
	// viewer epoch 13 with a 2-epoch window, a:1 (last advanced in epoch 10,
	// the replays did not refresh it) is 3 epochs silent, b:1 (epoch 11) is 2.
	view := f.Snapshot(13, 2)
	if len(view) != 2 {
		t.Fatalf("view size = %d, want 2", len(view))
	}
	// Sorted by address: a:1 then b:1.
	if !view[0].Self || view[0].Addr != "a:1" {
		t.Fatalf("view[0] = %+v, want self a:1", view[0])
	}
	if !view[0].Stale || view[0].SeenEpoch != 10 {
		t.Fatalf("a:1 = %+v, want stale (3 viewer epochs silent, window 2)", view[0])
	}
	if view[1].Stale || view[1].SeenEpoch != 11 {
		t.Fatalf("b:1 = %+v, want fresh (2 viewer epochs silent, window 2)", view[1])
	}
	if again := f.Snapshot(14, 2); !again[1].Stale {
		t.Fatal("b:1 must go stale one viewer epoch later")
	}
	if off := f.Snapshot(1000, 0); off[0].Stale || off[1].Stale {
		t.Fatal("window 0 must disable stale marking")
	}
}

// TestFleetGossipPickRoundRobin pins that successive picks cycle through
// every non-self entry, so a small k still propagates the whole view.
func TestFleetGossipPickRoundRobin(t *testing.T) {
	f := NewFleet("self:1")
	t0 := time.Unix(1700000000, 0)
	for _, addr := range []string{"self:1", "n1:1", "n2:1", "n3:1"} {
		f.Observe(wire.HealthDigest{Addr: addr, Epoch: 1}, t0, 0)
	}
	seen := make(map[string]int)
	for i := 0; i < 3; i++ {
		for _, d := range f.GossipPick(2) {
			if d.Addr == "self:1" {
				t.Fatal("GossipPick returned the self digest")
			}
			seen[d.Addr]++
		}
	}
	if len(seen) != 3 || seen["n1:1"] != 2 || seen["n2:1"] != 2 || seen["n3:1"] != 2 {
		t.Fatalf("6 picks over 3 peers = %v, want each exactly twice", seen)
	}
}

// TestFleetGossipPickMatchesSortEachCall: GossipPick and Snapshot walk the
// sorted address list Observe and eviction maintain. Over random observe,
// evict and forgive sequences their output matches the old algorithm, which
// built and sorted the address list on every call and is kept here as the
// reference.
func TestFleetGossipPickMatchesSortEachCall(t *testing.T) {
	refPick := func(f *Fleet, at *int, k int) []wire.HealthDigest {
		var addrs []string
		for addr := range f.nodes {
			if addr != f.self {
				addrs = append(addrs, addr)
			}
		}
		if k <= 0 || len(addrs) == 0 {
			return nil
		}
		sort.Strings(addrs)
		k = min(k, len(addrs))
		out := make([]wire.HealthDigest, 0, k)
		for i := 0; i < k; i++ {
			out = append(out, f.nodes[addrs[(*at+i)%len(addrs)]].d)
		}
		*at = (*at + k) % len(addrs)
		return out
	}
	refSnapshot := func(f *Fleet) []string {
		var addrs []string
		for addr := range f.nodes {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		return addrs
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFleet("n0500:1")
		refAt := 0
		now := time.Unix(1700000000, 0)
		pool := fleetMaxNodes + 80
		for step := 0; step < fleetMaxNodes+1200; step++ {
			now = now.Add(time.Duration(1+rng.Intn(1000)) * time.Millisecond)
			switch {
			case step < fleetMaxNodes-40:
				// Fill most of the view in order, so the random phase evicts.
				f.Observe(wire.HealthDigest{Addr: fmt.Sprintf("n%04d:1", step), Epoch: 1}, now, 0)
				if step%50 != 0 {
					continue
				}
			case rng.Intn(50) == 0:
				f.SetForgiveAfter(time.Duration(rng.Intn(3)) * time.Second)
			default:
				addr := fmt.Sprintf("n%04d:1", rng.Intn(pool))
				f.Observe(wire.HealthDigest{Addr: addr, Epoch: uint64(1 + rng.Intn(6))}, now, uint64(step))
			}
			k := rng.Intn(5)
			if got, want := f.GossipPick(k), refPick(f, &refAt, k); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d: GossipPick(%d) = %v, want %v", seed, step, k, got, want)
			}
			if step%97 == 0 {
				var got []string
				for _, nh := range f.Snapshot(uint64(step), 3) {
					got = append(got, nh.Addr)
				}
				if want := refSnapshot(f); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: Snapshot order %v, want %v", seed, step, got, want)
				}
			}
		}
		if f.Len() != fleetMaxNodes {
			t.Fatalf("seed %d: the view holds %d nodes; the sequence never evicted", seed, f.Len())
		}
	}
}

// TestFleetEviction pins the memory bound: at fleetMaxNodes the
// longest-unseen non-self entry is evicted for a newcomer.
func TestFleetEviction(t *testing.T) {
	f := NewFleet("self:1")
	t0 := time.Unix(1700000000, 0)
	f.Observe(wire.HealthDigest{Addr: "self:1", Epoch: 1}, t0, 0)
	f.Observe(wire.HealthDigest{Addr: "old:1", Epoch: 1}, t0.Add(1*time.Second), 0)
	for i := 2; i < fleetMaxNodes; i++ {
		f.Observe(wire.HealthDigest{Addr: fmt.Sprintf("mid%d:1", i), Epoch: 1}, t0.Add(2*time.Second), 0)
	}
	if _, evicted := f.Observe(wire.HealthDigest{Addr: "new:1", Epoch: 1}, t0.Add(3*time.Second), 0); evicted != "old:1" {
		t.Fatalf("Observe reported %q evicted, want old:1", evicted)
	}
	if f.Len() != fleetMaxNodes {
		t.Fatalf("fleet size = %d, want %d", f.Len(), fleetMaxNodes)
	}
	if _, ok := f.Get("new:1"); !ok {
		t.Fatal("newcomer was not admitted")
	}
	if _, ok := f.Get("old:1"); ok {
		t.Fatal("longest-unseen entry survived eviction")
	}
	if _, ok := f.Get("self:1"); !ok {
		t.Fatal("self entry was evicted")
	}
}

// TestSLOHysteresis pins the dwell behaviour against the pressure rule: 3
// consecutive violating digests raise, 5 consecutive healthy ones clear, and
// a lone spike does nothing — mirroring the PR 7 overload controller.
func TestSLOHysteresis(t *testing.T) {
	var alerts []Alert
	s := NewSLO(func(a Alert) { alerts = append(alerts, a) })
	t0 := time.Unix(1700000000, 0)
	obs := func(epoch uint64, pressure float64) {
		s.Observe(wire.HealthDigest{Addr: "n:1", Epoch: epoch, Pressure: pressure},
			t0.Add(time.Duration(epoch)*time.Second))
	}
	obs(1, 0.95) // lone spike
	obs(2, 0.1)
	obs(3, 0.95)
	obs(4, 0.95)
	if len(alerts) != 0 {
		t.Fatalf("alert fired after %d/%d violating samples: %+v", 2, 3, alerts)
	}
	obs(5, 0.95)
	if len(alerts) != 1 || !alerts[0].Firing || alerts[0].Rule != RulePressure {
		t.Fatalf("after 3rd violating sample alerts = %+v, want one firing pressure alert", alerts)
	}
	if act := s.Active(); len(act) != 1 || act[0].Node != "n:1" {
		t.Fatalf("Active() = %+v, want the firing alert", act)
	}
	for e := uint64(6); e <= 9; e++ {
		obs(e, 0.1)
	}
	if len(alerts) != 1 {
		t.Fatalf("alert cleared after only 4 healthy samples: %+v", alerts)
	}
	obs(10, 0.1)
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("after 5th healthy sample alerts = %+v, want a resolved alert", alerts)
	}
	if act := s.Active(); len(act) != 0 {
		t.Fatalf("Active() after recovery = %+v, want empty", act)
	}
}

// TestSLODeliveryRatioUsesIntervalDeltas pins that the delivery rule judges
// each epoch's traffic, not the lifetime totals: a long healthy history must
// not mask a node that just started shedding everything.
func TestSLODeliveryRatioUsesIntervalDeltas(t *testing.T) {
	var alerts []Alert
	s := NewSLO(func(a Alert) { alerts = append(alerts, a) })
	t0 := time.Unix(1700000000, 0)
	// Lifetime: 1,000,000 delivered, 0 shed — then three epochs shedding 90%.
	s.Observe(wire.HealthDigest{Addr: "n:1", Epoch: 1, Delivered: 1000000}, t0)
	s.Observe(wire.HealthDigest{Addr: "n:1", Epoch: 2, Delivered: 1000010, Shed: 90}, t0.Add(time.Second))
	s.Observe(wire.HealthDigest{Addr: "n:1", Epoch: 3, Delivered: 1000020, Shed: 180}, t0.Add(2*time.Second))
	s.Observe(wire.HealthDigest{Addr: "n:1", Epoch: 4, Delivered: 1000030, Shed: 270}, t0.Add(3*time.Second))
	if len(alerts) != 1 || !alerts[0].Firing || alerts[0].Rule != RuleDeliveryRatio {
		t.Fatalf("alerts = %+v, want one firing delivery-ratio alert (lifetime ratio is still 0.9997)", alerts)
	}
	if alerts[0].Value > 0.2 {
		t.Fatalf("alert value = %v, want the interval ratio (0.1), not the lifetime ratio", alerts[0].Value)
	}
	// An idle epoch (no traffic either way) is not a sample: still firing.
	s.Observe(wire.HealthDigest{Addr: "n:1", Epoch: 5, Delivered: 1000030, Shed: 270}, t0.Add(4*time.Second))
	if len(alerts) != 1 {
		t.Fatalf("idle epoch changed alert state: %+v", alerts)
	}
}

// TestSLOStaleRule pins crash-stop detection: MarkStale raises immediately
// (the staleness window is the dwell) and a fresh digest clears it.
func TestSLOStaleRule(t *testing.T) {
	var alerts []Alert
	s := NewSLO(func(a Alert) { alerts = append(alerts, a) })
	t0 := time.Unix(1700000000, 0)
	s.MarkStale("n:1", true, 6*time.Second, t0, 42)
	if len(alerts) != 1 || !alerts[0].Firing || alerts[0].Rule != RuleStale || alerts[0].Epoch != 42 {
		t.Fatalf("alerts = %+v, want an immediate stale alert stamped with the sweep's epoch 42", alerts)
	}
	s.MarkStale("n:1", true, 7*time.Second, t0, 43)
	if act := s.Active(); len(act) != 1 || act[0].Epoch != 42 {
		t.Fatalf("Active() = %+v, want the alert to keep the epoch that raised it", act)
	}
	s.Observe(wire.HealthDigest{Addr: "n:1", Epoch: 9}, t0.Add(time.Second))
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("alerts = %+v, want the stale alert resolved by a fresh digest", alerts)
	}
}

// TestWriteProm pins the exact exposition output for a mixed snapshot:
// sorted names, groupcast_ prefix, sanitized characters, cumulative buckets
// with +Inf folding in the overflow, and labels on every sample.
func TestWriteProm(t *testing.T) {
	snap := metrics.RegistrySnapshot{
		Counters: map[string]int64{"payloads.sent": 12, "shed": 3},
		Gauges:   map[string]float64{"inbox_depth": 2.5},
		Histograms: map[string]metrics.HistogramSnapshot{
			"lat_ms": {
				Count: 7, Sum: 31.5,
				Buckets:  []metrics.BucketCount{{Le: 1, Count: 2}, {Le: 10, Count: 4}},
				Overflow: 1,
			},
		},
	}
	var b strings.Builder
	if err := WriteProm(&b, snap, map[string]string{"node": `a"b\c`}); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE groupcast_payloads_sent counter
groupcast_payloads_sent{node="a\"b\\c"} 12
# TYPE groupcast_shed counter
groupcast_shed{node="a\"b\\c"} 3
# TYPE groupcast_inbox_depth gauge
groupcast_inbox_depth{node="a\"b\\c"} 2.5
# TYPE groupcast_lat_ms histogram
groupcast_lat_ms_bucket{node="a\"b\\c",le="1"} 2
groupcast_lat_ms_bucket{node="a\"b\\c",le="10"} 6
groupcast_lat_ms_bucket{node="a\"b\\c",le="+Inf"} 7
groupcast_lat_ms_sum{node="a\"b\\c"} 31.5
groupcast_lat_ms_count{node="a\"b\\c"} 7
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFleetRestartForgiveness pins the crash–restart exception to epoch
// monotonicity: a regressing epoch for a long-silent entry means the node
// came back with reset counters, and the fresh lineage is adopted — while a
// regressing digest for a recently live entry is still a stale relay and is
// dropped.
func TestFleetRestartForgiveness(t *testing.T) {
	f := NewFleet("a:1")
	f.SetForgiveAfter(10 * time.Second)
	t0 := time.Unix(1700000000, 0)
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 50, Pressure: 0.5}, t0, 0); !ok {
		t.Fatal("first b digest rejected")
	}
	// 5s later (inside the window): epoch 2 is a stale relay, not a restart.
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 2}, t0.Add(5*time.Second), 0); ok {
		t.Fatal("regressing digest accepted inside the forgiveness window")
	}
	// 11s of silence: the same regression now reads as an observed restart.
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 2, Pressure: 0.1}, t0.Add(11*time.Second), 0); !ok {
		t.Fatal("restart lineage rejected after the forgiveness window")
	}
	if d, ok := f.Get("b:1"); !ok || d.Epoch != 2 || d.Pressure != 0.1 {
		t.Fatalf("Get(b:1) = %+v, %v; want the restarted digest", d, ok)
	}
	// The adopted lineage advances normally from its reset counter.
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 3}, t0.Add(12*time.Second), 0); !ok {
		t.Fatal("post-restart advance rejected")
	}
	// Forgiveness off: regressions are always stale relays.
	f.SetForgiveAfter(0)
	if ok, _ := f.Observe(wire.HealthDigest{Addr: "b:1", Epoch: 1}, t0.Add(time.Hour), 0); ok {
		t.Fatal("regression accepted with forgiveness disabled")
	}
}
