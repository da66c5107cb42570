package dht

import (
	"math"
	"time"
)

// churnSlots is the ring size of the estimator: the window is divided into
// this many slots so old events age out in window/churnSlots increments
// instead of all at once.
const churnSlots = 16

// ChurnEstimator measures the observed churn rate — bucket evictions,
// failure-detector removals, stale-record sweeps — as events per second over
// a sliding window. It is a fixed-size ring of per-slot counters, so memory
// is bounded regardless of event rate, and a burst decays smoothly as its
// slots age out of the window. Like Table, it belongs to one goroutine.
type ChurnEstimator struct {
	slot   time.Duration
	slots  [churnSlots]int64 // slot index currently occupying each ring entry
	counts [churnSlots]int   // events recorded in that slot
}

// NewChurnEstimator returns an estimator averaging over the given window
// (floored to one second).
func NewChurnEstimator(window time.Duration) *ChurnEstimator {
	if window < time.Second {
		window = time.Second
	}
	return &ChurnEstimator{slot: window / churnSlots}
}

// Note records events churn events observed at now.
func (e *ChurnEstimator) Note(events int, now time.Time) {
	if events <= 0 {
		return
	}
	slot := now.UnixNano() / int64(e.slot)
	idx := int(slot % churnSlots)
	if e.slots[idx] != slot {
		e.slots[idx] = slot
		e.counts[idx] = 0
	}
	e.counts[idx] += events
}

// Rate returns the observed churn rate in events per second over the
// sliding window ending at now.
func (e *ChurnEstimator) Rate(now time.Time) float64 {
	slot := now.UnixNano() / int64(e.slot)
	total := 0
	for i := range e.slots {
		if e.slots[i] > slot-churnSlots {
			total += e.counts[i]
		}
	}
	return float64(total) / (float64(churnSlots) * e.slot.Seconds())
}

// AdaptiveEpochs maps an observed churn rate onto a maintenance cadence in
// epochs: the relaxed cadence at or below calmRate, the tight cadence at or
// above stormRate, linear interpolation between. Rate units only need to
// match the thresholds' (the node feeds events per heartbeat epoch). The
// result is clamped to [tight, relaxed] and never below 1.
func AdaptiveEpochs(rate, calmRate, stormRate float64, relaxed, tight int) int {
	if tight < 1 {
		tight = 1
	}
	if relaxed < tight {
		relaxed = tight
	}
	switch {
	case stormRate <= calmRate || rate >= stormRate:
		return tight
	case rate <= calmRate:
		return relaxed
	}
	frac := (rate - calmRate) / (stormRate - calmRate)
	return relaxed - int(math.Round(frac*float64(relaxed-tight)))
}
