package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// This file is the live half of the metrics package: a registry of named counters, gauges, and fixed-bucket histograms that the
// runtime (internal/node, internal/transport, internal/reliable) registers
// its instruments into and the introspection endpoint snapshots as JSON.
// The offline statistical helpers (Summarize, Percentile, Histogram on raw
// samples) live in the sibling files; FixedHistogram differs from those in
// that it is an online, allocation-free accumulator whose quantiles are a
// pure function of its integer bucket counts — so two runs observing the
// same multiset of values report byte-identical quantiles regardless of
// arrival order or worker count.

// Registry is a named-instrument set. Counters and gauges are callbacks over
// state their owner already keeps (the node's counters live in node.Stats,
// not here); histograms are get-or-create so independent subsystems can
// share names. Register every instrument before the registry is shared:
// after that its maps are only read, so histograms may be observed from any
// goroutine, and a snapshot runs the callbacks on the goroutine that takes
// it (a node takes its snapshots on its loop, which owns what its gauges
// read).
type Registry struct {
	counters map[string]func() uint64
	gauges   map[string]func() float64
	hists    map[string]*FixedHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]func() uint64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*FixedHistogram),
	}
}

// Counter registers a callback reading a monotonically increasing count,
// sampled at snapshot time under the same rules as Gauge.
func (r *Registry) Counter(name string, fn func() uint64) {
	r.counters[name] = fn
}

// Gauge registers a callback sampled at snapshot time. Re-registering a
// name replaces the callback.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.gauges[name] = fn
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given bucket upper bounds on first use (later calls ignore the bounds).
func (r *Registry) Histogram(name string, bounds []float64) *FixedHistogram {
	h := r.hists[name]
	if h == nil {
		h = NewFixedHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every instrument's current value. Gauge callbacks run
// inside the call; non-finite gauge values are clamped to 0 so the snapshot
// always marshals to valid JSON.
func (r *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, fn := range r.counters {
		snap.Counters[k] = int64(fn())
	}
	for k, fn := range r.gauges {
		v := fn()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		snap.Gauges[k] = v
	}
	for k, h := range r.hists {
		snap.Histograms[k] = h.Snapshot()
	}
	return snap
}

// RegistrySnapshot is a point-in-time copy of a registry, JSON-marshalable
// as served by /debug/vars.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// DefaultLatencyBuckets are millisecond upper bounds spanning sub-millisecond
// in-process hops to multi-second recovery paths.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// FixedHistogram is an online histogram with fixed bucket upper bounds and
// an implicit overflow bucket. Observations are lock-free (one atomic add
// per bucket and a CAS loop for the sum), making it safe on hot paths.
type FixedHistogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewFixedHistogram builds a histogram over the given ascending upper
// bounds. Nil or empty bounds fall back to DefaultLatencyBuckets.
func NewFixedHistogram(bounds []float64) *FixedHistogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &FixedHistogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value. NaN is ignored.
func (h *FixedHistogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDurationMs records a duration given in milliseconds (convenience
// alias making call sites self-documenting).
func (h *FixedHistogram) ObserveDurationMs(ms float64) { h.Observe(ms) }

// Count returns the number of observations so far.
func (h *FixedHistogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram's current state.
func (h *FixedHistogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Buckets: make([]BucketCount, len(h.bounds)),
	}
	if math.IsNaN(snap.Sum) || math.IsInf(snap.Sum, 0) {
		snap.Sum = 0
	}
	for i, b := range h.bounds {
		snap.Buckets[i] = BucketCount{Le: b, Count: h.counts[i].Load()}
	}
	snap.Overflow = h.counts[len(h.bounds)].Load()
	return snap
}

// BucketCount is one bucket of a snapshot: Count observations with
// value <= Le (non-cumulative; each observation lands in exactly one bucket).
type BucketCount struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time histogram copy. Quantile estimates
// are pure functions of the integer bucket counts, so they are deterministic
// for a fixed observation multiset regardless of observation order.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	// Buckets are the finite buckets; Overflow counts observations above the
	// last bound (kept separate so the snapshot marshals without +Inf).
	Buckets  []BucketCount `json:"buckets,omitempty"`
	Overflow uint64        `json:"overflow,omitempty"`
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank. Observations in the overflow
// bucket report the last finite bound (a known floor). Returns 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	lo := 0.0
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if rank <= next && b.Count > 0 {
			frac := (rank - cum) / float64(b.Count)
			return lo + (b.Le-lo)*frac
		}
		cum = next
		lo = b.Le
	}
	return s.Buckets[len(s.Buckets)-1].Le
}
