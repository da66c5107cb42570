package telemetry

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"

	"groupcast/internal/metrics"
	"groupcast/internal/trace"
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

// stitchFixture builds a synthetic 3-process trace with known clock skews:
// B's clock runs +50ms, C's -30ms, link one-way delay 5ms each way. The
// payload travels A→B→C, C misses seq 1 and NACKs B, B retransmits.
func stitchFixture() *Stitcher {
	const (
		offA = 0
		offB = 50 * time.Millisecond
		offC = -30 * time.Millisecond
		d    = 5 * time.Millisecond
	)
	t0 := time.Unix(1700000000, 0) // true time base
	at := func(true0 time.Duration, off time.Duration) time.Time {
		return t0.Add(true0 + off)
	}
	pay := func(kind trace.Kind, node string, ts time.Time, peer string, hop int) trace.Event {
		return trace.Event{Time: ts, Node: node, Kind: kind, Msg: "payload",
			Group: "g", TraceID: 7, Seq: 1, Source: "A", Peer: peer, Hop: hop}
	}
	nack := func(kind trace.Kind, node string, ts time.Time, peer string) trace.Event {
		return trace.Event{Time: ts, Node: node, Kind: kind, Msg: "nack",
			Group: "g", TraceID: 7, Seq: 1, Source: "A", Peer: peer}
	}
	hb := func(kind trace.Kind, node string, ts time.Time, peer string, seq uint64) trace.Event {
		return trace.Event{Time: ts, Node: node, Kind: kind, Msg: "heartbeat",
			Seq: seq, Peer: peer}
	}
	s := NewStitcher()
	s.AddNode("A", []trace.Event{
		pay(trace.KindPublish, "A", at(0, offA), "", 0),
		pay(trace.KindSend, "A", at(1*time.Millisecond, offA), "B", 0),
		// Reverse-direction sample so the A↔B offset is the symmetric
		// two-way estimate, not the one-way upper bound.
		hb(trace.KindRecv, "A", at(20*time.Millisecond+d, offA), "B", 100),
	})
	s.AddNode("B", []trace.Event{
		pay(trace.KindRecv, "B", at(1*time.Millisecond+d, offB), "A", 1),
		pay(trace.KindDeliver, "B", at(7*time.Millisecond, offB), "", 1),
		pay(trace.KindSend, "B", at(8*time.Millisecond, offB), "C", 1),
		hb(trace.KindSend, "B", at(20*time.Millisecond, offB), "A", 100),
		// The first copy to C is lost in this fixture (C has no recv for
		// it); C's NACK arrives and B retransmits.
		nack(trace.KindRecv, "B", at(40*time.Millisecond+d, offB), "C"),
		pay(trace.KindRetransmit, "B", at(47*time.Millisecond, offB), "C", 1),
	})
	s.AddNode("C", []trace.Event{
		nack(trace.KindNack, "C", at(40*time.Millisecond, offC), "B"),
		pay(trace.KindRecv, "C", at(47*time.Millisecond+d, offC), "B", 2),
		pay(trace.KindDeliver, "C", at(55*time.Millisecond, offC), "", 2),
	})
	return s
}

// TestStitchOffsets pins the offset estimator: with symmetric delays and
// both directions sampled, the relative skews are recovered exactly.
func TestStitchOffsets(t *testing.T) {
	s := stitchFixture()
	offs := s.Offsets("A")
	want := map[string]time.Duration{
		"A": 0,
		"B": 50 * time.Millisecond,
		"C": -30 * time.Millisecond,
	}
	for node, w := range want {
		got, ok := offs[node]
		if !ok {
			t.Fatalf("no offset for %s (got %v)", node, offs)
		}
		if diff := got - w; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("offset[%s] = %v, want %v ±1ms", node, got, w)
		}
	}
}

// TestStitchTimelineCausal pins the merged timeline: with 80ms of raw skew
// between B and C the unadjusted ordering is garbage, but the stitched
// timeline is causally ordered across all three processes, NACK recovery
// included.
func TestStitchTimelineCausal(t *testing.T) {
	s := stitchFixture()
	tl := s.Stitch("A", StitchFilter{TraceID: 7})
	if len(tl.Nodes) != 3 {
		t.Fatalf("timeline spans %v, want all of A B C", tl.Nodes)
	}
	if v := tl.CausalViolations(); v != 0 {
		t.Fatalf("stitched timeline has %d causal violations, want 0", v)
	}
	// The payload's life must read in order across process boundaries.
	wantOrder := []struct {
		node string
		kind trace.Kind
	}{
		{"A", trace.KindPublish},
		{"A", trace.KindSend},
		{"B", trace.KindRecv},
		{"B", trace.KindDeliver},
		{"B", trace.KindSend},
		{"C", trace.KindNack},
		{"B", trace.KindRecv},
		{"B", trace.KindRetransmit},
		{"C", trace.KindRecv},
		{"C", trace.KindDeliver},
	}
	if len(tl.Events) != len(wantOrder) {
		t.Fatalf("timeline has %d events, want %d: %+v", len(tl.Events), len(wantOrder), tl.Events)
	}
	for i, w := range wantOrder {
		if tl.Events[i].Node != w.node || tl.Events[i].Kind != w.kind {
			t.Fatalf("event %d = %s/%s, want %s/%s", i,
				tl.Events[i].Node, tl.Events[i].Kind, w.node, w.kind)
		}
	}
	// Sanity: the RAW timestamps were not causally ordered — on local
	// clocks B retransmitted (B clock +50ms) "after" C already received the
	// copy (C clock -30ms) — so the adjustment, not luck, produced the
	// ordering above.
	retrans, recvC := tl.Events[7], tl.Events[8]
	if retrans.Kind != trace.KindRetransmit || recvC.Kind != trace.KindRecv {
		t.Fatalf("fixture drifted: events[7..8] = %s, %s", retrans.Kind, recvC.Kind)
	}
	if !retrans.Time.After(recvC.Time) {
		t.Fatal("fixture lost its skew: raw retransmit time should read after the raw recv time")
	}
}

// TestStitchReadNDJSON pins the offline path: a -trace-file NDJSON stream
// round-trips into the collector.
func TestStitchReadNDJSON(t *testing.T) {
	src := `{"t":"2026-01-02T03:04:05.000000006Z","node":"A","kind":"send","msg":"payload","group":"g","trace":9,"seq":2,"src":"A","peer":"B"}

{"t":"2026-01-02T03:04:05.010000006Z","node":"A","kind":"deliver","group":"g","trace":9,"seq":2,"src":"A"}
`
	s := NewStitcher()
	if err := s.ReadNDJSON("A", bufio.NewScanner(strings.NewReader(src))); err != nil {
		t.Fatal(err)
	}
	tl := s.Stitch("A", StitchFilter{TraceID: 9})
	if len(tl.Events) != 2 || tl.Events[0].Kind != trace.KindSend {
		t.Fatalf("timeline = %+v, want the 2 NDJSON events", tl.Events)
	}
	bad := `{"t":not-json}`
	if err := s.ReadNDJSON("B", bufio.NewScanner(strings.NewReader(bad))); err == nil {
		t.Fatal("malformed NDJSON line did not error")
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
