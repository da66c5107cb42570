package node

import (
	"sync/atomic"
	"time"

	"groupcast/internal/transport"
)

// This file is the node half of the overload-protection plane (the
// transport half is the class-prioritized inbox, the bounded per-link send
// queues, and the slow-peer circuit breakers). The node samples a local
// pressure signal — how full the inbound queue is, and what fraction of
// downstream links have an open breaker — and runs it through a hysteresis
// loop into a binary degraded state. While degraded, the node sheds
// loss-tolerant work at its own edge instead of amplifying the overload:
// best-effort publishes are refused with ErrBackpressure (admission
// control), and best-effort payload relay is skipped (local delivery still
// happens — only the fan-out is shed). Retransmissions, beacons, charter
// replication, NACKs, and everything else on the control plane or the
// reliable data plane is never shed here: the prioritized inbox already
// protects them inbound, and degrading them would turn an overload into a
// partition.

// Overload controller constants.
const (
	// overloadEnterPressure is the pressure at or above which samples
	// count toward entering the degraded state.
	overloadEnterPressure = 0.75
	// overloadExitPressure is the pressure at or below which samples
	// count toward leaving it. The wide gap between the two is the
	// hysteresis band that keeps the state from flapping at the boundary.
	overloadExitPressure = 0.25
	// overloadEnterSamples / overloadExitSamples are how many
	// consecutive qualifying samples flip the state. Exit is slower than
	// entry: recovering early costs another episode, entering late costs
	// shed control traffic.
	overloadEnterSamples = 3
	overloadExitSamples  = 5
	// DefaultOverloadSampleInterval paces the pressure sampler.
	DefaultOverloadSampleInterval = 100 * time.Millisecond
)

// overloadState is the controller's state, owned by the node's loop, the
// only caller of overloadTick. pressure is the last sample.
type overloadState struct {
	enterStreak int
	exitStreak  int
	enteredAt   time.Time
	degraded    bool
	pressure    float64
}

// OverloadView is the controller's snapshot for introspection (/debug) and
// tests.
type OverloadView struct {
	// Degraded reports the controller state; Pressure is the last sample.
	Degraded bool    `json:"degraded"`
	Pressure float64 `json:"pressure"`
	// DegradedMs is how long the current episode has lasted (0 when
	// healthy).
	DegradedMs float64 `json:"degraded_ms,omitempty"`
}

// Overloaded reports whether the node is currently in the degraded state.
func (n *Node) Overloaded() (degraded bool) {
	n.post(func() { degraded = n.overload.degraded })
	return degraded
}

// OverloadSnapshot renders the controller for /debug and tests.
func (n *Node) OverloadSnapshot() (ov OverloadView) {
	o := &n.overload
	n.post(func() {
		ov = OverloadView{Degraded: o.degraded, Pressure: o.pressure}
		if ov.Degraded {
			ov.DegradedMs = float64(n.now.Sub(o.enteredAt)) / float64(time.Millisecond)
		}
	})
	return ov
}

// samplePressure computes the node's local pressure signal in [0, 1]:
// the inbound queue's occupancy fraction, and the fraction of downstream
// links whose circuit breaker is open, whichever is worse. Either one
// saturating means work is being lost or refused right now.
func (n *Node) samplePressure() float64 {
	pressure := float64(n.inbox.Depth()) / float64(n.inbox.Capacity())
	if br, ok := n.tr.(transport.BreakerReporter); ok {
		if brks := br.Breakers(); len(brks) > 0 {
			open := 0
			for _, b := range brks {
				if b.State == "open" {
					open++
				}
			}
			if frac := float64(open) / float64(len(brks)); frac > pressure {
				pressure = frac
			}
		}
	}
	if pressure > 1 {
		pressure = 1
	}
	return pressure
}

// overloadTick folds one pressure sample into the hysteresis state. The
// loop calls it every OverloadSampleInterval.
func (n *Node) overloadTick(pressure float64) {
	o := &n.overload
	o.pressure = pressure
	var episodeDur time.Duration
	entered := false
	if !o.degraded {
		if pressure >= overloadEnterPressure {
			o.enterStreak++
		} else {
			o.enterStreak = 0
		}
		if o.enterStreak >= overloadEnterSamples {
			o.enteredAt = n.now
			o.degraded = true
			o.enterStreak = 0
			o.exitStreak = 0
			entered = true
		}
	} else {
		if pressure <= overloadExitPressure {
			o.exitStreak++
		} else {
			o.exitStreak = 0
		}
		if o.exitStreak >= overloadExitSamples {
			o.degraded = false
			episodeDur = n.now.Sub(o.enteredAt)
			o.exitStreak = 0
		}
	}
	n.metrics.overloadPressure.Observe(pressure)
	if entered {
		atomic.AddUint64(&n.stats.OverloadEpisodes, 1)
	}
	if episodeDur > 0 {
		n.metrics.overloadEpisode.ObserveDurationMs(float64(episodeDur) / float64(time.Millisecond))
	}
}

// Breakers reports the transport's per-peer circuit breakers, sorted by
// address (nil when the transport has none — e.g. the in-memory fabric).
func (n *Node) Breakers() []transport.BreakerInfo {
	if br, ok := n.tr.(transport.BreakerReporter); ok {
		return br.Breakers()
	}
	return nil
}

// InboxQueue is the transport's class-prioritized inbound queue, for
// experiments and tests that read the per-class accepted/shed counters.
func (n *Node) InboxQueue() *transport.PrioInbox { return n.inbox }
