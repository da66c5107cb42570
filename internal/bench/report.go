package bench

import (
	"fmt"
	"io"
	"math"
	"time"
)

// Metric is a metric's name and unit, as BENCHMARK.json lists them.
type Metric struct {
	Name, Unit string
}

// EndToEnd are the metrics an untraced run (-trace 0) reports.
var EndToEnd = []Metric{
	{"fanout_p50_us", "us"},
	{"capacity_msgs_per_s", "1/s"},
	{"cpu_us_per_delivery", "us"},
	{"setup_s", "s"},
}

// PerLayer are the metrics a traced run (-trace 1) reports.
var PerLayer = []Metric{
	// Traced w1 pass: medians over the analysed publishes of the parts along
	// the path to the last-delivering member.
	{"trace.publish_self_us", "us"},
	{"trace.send_us", "us"},
	{"trace.hop_transit_us", "us"},
	{"trace.handler_us", "us"},
	{"trace.relay_self_us", "us"},
	{"trace.residual_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	// Counted on the untraced cluster during the measured rounds.
	{"node.publish_call_ns", "ns"},
	{"node.join_p50_us", "us"},
	{"node.bootstrap_p50_us", "us"},
	{"node.dupes", "count"},
	{"transport.inbox_sheds", "count"},
	{"transport.send_errors", "count"},
	{"transport.coalesced_msgs", "count"},
	{"reliable.nacks", "count"},
	{"reliable.retransmits", "count"},
	{"runtime.alloc_bytes_per_delivery", "B"},
	{"runtime.allocs_per_delivery", "count"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.leaked_goroutines", "count"},
	{"w16.fanout_p50_us", "us"},
	{"tail.fanout_p99_us", "us"},
	{"tail.fanout_max_us", "us"},
	// Layer pass: one layer at a time, outside any cluster.
	{"wire.encode_payload64_ns", "ns"},
	{"wire.decode_payload64_ns", "ns"},
	{"wire.decode_payload64_allocs", "count"},
	{"wire.encode_payload4k_ns", "ns"},
	{"wire.decode_payload4k_ns", "ns"},
	{"wire.decode_beacon_ns", "ns"},
	{"wire.decode_beacon_allocs", "count"},
	{"transport.inbox_push_recv_ns", "ns"},
	{"transport.inbox_allocs", "count"},
	{"transport.mem_send_recv_ns", "ns"},
	{"transport.tcp_send_recv_64_ns", "ns"},
	{"transport.tcp_send_recv_4k_ns", "ns"},
	{"transport.tcp_sendmany3_ns", "ns"},
	{"reliable.observe_inorder_ns", "ns"},
	{"reliable.observe_allocs", "count"},
	{"reliable.sendbuffer_next_ns", "ns"},
	{"dht.lookup_us", "us"},
	{"dht.lookup_queries", "count"},
	{"dht.table_closest_ns", "ns"},
	{"metrics.histogram_observe_ns", "ns"},
	{"core.select_ns", "ns"},
	{"sim.events_per_s", "1/s"},
	{"experiments.sweep_s", "s"},
}

// overRounds is the median over the rounds of f(round).
func overRounds(phases []PhaseResult, f func(PhaseResult) float64) float64 {
	xs := make([]float64, len(phases))
	for i, p := range phases {
		xs[i] = f(p)
	}
	return Median(xs)
}

func quantileUs(q float64) func(PhaseResult) float64 {
	return func(p PhaseResult) float64 { return quantileNs(p.Latencies, q) / 1e3 }
}

func medianDuration(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return Median(xs)
}

func endToEndValues(run *clusterRun) map[string]float64 {
	return map[string]float64{
		"fanout_p50_us": overRounds(run.w1, quantileUs(0.50)),
		"capacity_msgs_per_s": overRounds(run.w16, func(p PhaseResult) float64 {
			return float64(p.Completed) / p.Elapsed.Seconds()
		}),
		"cpu_us_per_delivery": overRounds(run.w16, func(p PhaseResult) float64 {
			return float64(p.CPU) / 1e3 / float64(p.Deliveries)
		}),
		"setup_s": medianDuration(run.setups, time.Second),
	}
}

// countedValues are the per-layer numbers read off the untraced cluster.
func countedValues(run *clusterRun) map[string]float64 {
	perDelivery := func(f func(memDelta) float64) float64 {
		return overRounds(run.w16, func(p PhaseResult) float64 { return f(p.Mem) / float64(p.Deliveries) })
	}
	perSecond := func(f func(memDelta) float64) float64 {
		return overRounds(run.w16, func(p PhaseResult) float64 { return f(p.Mem) / p.Elapsed.Seconds() })
	}
	return map[string]float64{
		"node.publish_call_ns": overRounds(run.w16, func(p PhaseResult) float64 {
			return float64(p.PublishNs) / float64(p.Completed)
		}),
		"node.join_p50_us":         medianDuration(run.joins, time.Microsecond),
		"node.bootstrap_p50_us":    medianDuration(run.bootstraps, time.Microsecond),
		"node.dupes":               float64(run.stats.DuplicatesDropped),
		"transport.inbox_sheds":    float64(run.stats.Transport.InboxSheds),
		"transport.send_errors":    float64(run.stats.SendErrors),
		"transport.coalesced_msgs": float64(run.coalesced),
		"reliable.nacks":           float64(run.stats.NacksSent + run.stats.NacksForwarded),
		"reliable.retransmits":     float64(run.stats.Retransmits),
		"runtime.alloc_bytes_per_delivery": perDelivery(func(m memDelta) float64 {
			return float64(m.AllocBytes)
		}),
		"runtime.allocs_per_delivery": perDelivery(func(m memDelta) float64 { return float64(m.Mallocs) }),
		"runtime.gc_cycles_per_s":     perSecond(func(m memDelta) float64 { return float64(m.GCCycles) }),
		"runtime.gc_pause_ms_per_s": perSecond(func(m memDelta) float64 {
			return float64(m.GCPause) / float64(time.Millisecond)
		}),
		"w16.fanout_p50_us":  overRounds(run.w16, quantileUs(0.50)),
		"tail.fanout_p99_us": overRounds(run.w1, quantileUs(0.99)),
		"tail.fanout_max_us": overRounds(run.w1, quantileUs(1)),
	}
}

// tracedValues analyses the traced pass: every publish of its measured phase
// must tile, and the parts' medians are reported.
func tracedValues(values map[string]float64, rec *Recorder, traced, plain *clusterRun) error {
	var parts [6][]float64
	for pub, spans := range rec.ByPublish() {
		if pub < traced.measured {
			continue // warm-up
		}
		b, err := AnalyzePublish(spans)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		for i, v := range []float64{b.PublishSelf, b.Send, b.HopTransit, b.Handler, b.RelaySelf, b.Residual()} {
			parts[i] = append(parts[i], v)
		}
	}
	if int64(len(parts[0])) != traced.w1[0].Completed {
		return fmt.Errorf("trace: %d publishes analysed, %d completed", len(parts[0]), traced.w1[0].Completed)
	}
	for i, name := range []string{"trace.publish_self_us", "trace.send_us", "trace.hop_transit_us",
		"trace.handler_us", "trace.relay_self_us"} {
		values[name] = Median(parts[i]) / 1e3
	}
	values["trace.residual_ratio"] = Median(parts[5])
	values["trace.overhead_ratio"] = quantileUs(0.50)(traced.w1[0]) / overRounds(plain.w1, quantileUs(0.50))
	return nil
}

// report prints every metric by name with its unit and builds the result
// line. A metric the run failed to produce (missing or not finite) is an
// error, so a hole cannot pass as a number.
func report(log io.Writer, metrics []Metric, values map[string]float64, attempted, failed int64, leaked int, detail string) (Result, error) {
	res := Result{
		Correct:   failed == 0 && leaked == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]Value, len(metrics)),
	}
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
		fmt.Fprintf(log, "%-36s %16.4f %s\n", m.Name, v, m.Unit)
	}
	if len(values) != len(metrics) {
		return res, fmt.Errorf("%d values measured, %d metrics declared", len(values), len(metrics))
	}
	fmt.Fprintf(log, "attempted=%d failed=%d failed_ratio=%g (%s)\n",
		attempted, failed, float64(failed)/float64(attempted), detail)
	return res, nil
}
