package telemetry

import (
	"time"

	"groupcast/internal/metrics"
)

// HistQuantiles summarizes one histogram at one sample point. Quantiles are
// the deterministic bucket-interpolated estimates from
// metrics.HistogramSnapshot.Quantile, so two nodes with identical bucket
// contents report identical values.
type HistQuantiles struct {
	// Count is the delta of observations since the previous sample (total
	// observations on the first sample).
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Sample is one epoch's reading of a node's metrics registry: counters as
// deltas since the previous sample (rates, not lifetime totals — the thing
// a trajectory plot wants), gauges as-is, histograms as quantiles of the
// cumulative distribution. A bounded ring of these is what /debug/history
// serves.
type Sample struct {
	Epoch     uint64                   `json:"epoch"`
	Time      time.Time                `json:"t"`
	Counters  map[string]int64         `json:"counters,omitempty"`
	Gauges    map[string]float64       `json:"gauges,omitempty"`
	Quantiles map[string]HistQuantiles `json:"quantiles,omitempty"`
}

// historySamples is the ring's capacity — how far back /debug/history
// reaches (120 epochs ≈ 4 minutes at the default 2 s heartbeat).
const historySamples = 120

// History is a bounded time-series ring over registry snapshots. Observe is
// called once per beacon epoch with the current snapshot; the newest
// historySamples samples survive. Like Fleet and SLO it belongs to one
// goroutine, a live node's loop.
type History struct {
	samples []Sample
	next    int
	prev    metrics.RegistrySnapshot
	hasPrev bool
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{samples: make([]Sample, 0, historySamples)}
}

// Observe derives one sample from the registry snapshot (deltas against the
// previous observation), appends it to the ring, and returns it.
func (h *History) Observe(epoch uint64, now time.Time, snap metrics.RegistrySnapshot) Sample {
	s := Sample{Epoch: epoch, Time: now}
	if len(snap.Counters) > 0 {
		s.Counters = make(map[string]int64, len(snap.Counters))
		for name, v := range snap.Counters {
			d := v
			if h.hasPrev {
				if p, ok := h.prev.Counters[name]; ok {
					d = v - p
				}
			}
			s.Counters[name] = d
		}
	}
	if len(snap.Gauges) > 0 {
		s.Gauges = make(map[string]float64, len(snap.Gauges))
		for name, v := range snap.Gauges {
			s.Gauges[name] = v
		}
	}
	if len(snap.Histograms) > 0 {
		s.Quantiles = make(map[string]HistQuantiles, len(snap.Histograms))
		for name, hs := range snap.Histograms {
			count := hs.Count
			if h.hasPrev {
				if p, ok := h.prev.Histograms[name]; ok {
					count = hs.Count - p.Count
				}
			}
			s.Quantiles[name] = HistQuantiles{
				Count: count,
				P50:   hs.Quantile(0.50),
				P90:   hs.Quantile(0.90),
				P99:   hs.Quantile(0.99),
			}
		}
	}
	h.prev = snap
	h.hasPrev = true
	if len(h.samples) < cap(h.samples) {
		h.samples = append(h.samples, s)
	} else {
		h.samples[h.next] = s
	}
	h.next = (h.next + 1) % cap(h.samples)
	return s
}

// Snapshot returns the buffered samples, oldest first.
func (h *History) Snapshot() []Sample {
	out := make([]Sample, 0, len(h.samples))
	if len(h.samples) < cap(h.samples) {
		return append(out, h.samples...)
	}
	out = append(out, h.samples[h.next:]...)
	return append(out, h.samples[:h.next]...)
}

// Len counts the buffered samples.
func (h *History) Len() int {
	return len(h.samples)
}
