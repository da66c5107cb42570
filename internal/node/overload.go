package node

import (
	"sync"
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
	// DefaultPendingReqTTL bounds the pending request-correlation map.
	DefaultPendingReqTTL = 30 * time.Second
)

// overloadState is the controller's mutable state, guarded by its own mutex
// (the sampler and the hot-path degraded() checks never touch n.mu).
type overloadState struct {
	mu          sync.Mutex
	degraded    bool
	pressure    float64 // last sampled value
	enterStreak int
	exitStreak  int
	enteredAt   time.Time
}

// OverloadView is the controller's snapshot for introspection (/debug) and
// tests.
type OverloadView struct {
	// Enabled is false when DisableOverloadControl was set.
	Enabled bool `json:"enabled"`
	// Degraded reports the controller state; Pressure is the last sample.
	Degraded bool    `json:"degraded"`
	Pressure float64 `json:"pressure"`
	// Episodes counts entries into the degraded state; DegradedMs is how
	// long the current episode has lasted (0 when healthy).
	Episodes   uint64  `json:"episodes"`
	DegradedMs float64 `json:"degraded_ms,omitempty"`
	// PublishRejects and RelaySheds count the admission-control refusals
	// and the best-effort relay fan-outs shed while degraded.
	PublishRejects uint64 `json:"publish_rejects"`
	RelaySheds     uint64 `json:"relay_sheds"`
}

// Overloaded reports whether the node is currently in the degraded state.
func (n *Node) Overloaded() bool {
	if n.cfg.DisableOverloadControl {
		return false
	}
	n.overload.mu.Lock()
	defer n.overload.mu.Unlock()
	return n.overload.degraded
}

// OverloadSnapshot renders the controller for /debug and tests.
func (n *Node) OverloadSnapshot() OverloadView {
	n.overload.mu.Lock()
	ov := OverloadView{
		Enabled:  !n.cfg.DisableOverloadControl,
		Degraded: n.overload.degraded,
		Pressure: n.overload.pressure,
	}
	if n.overload.degraded {
		ov.DegradedMs = float64(time.Since(n.overload.enteredAt)) / float64(time.Millisecond)
	}
	n.overload.mu.Unlock()
	ov.Episodes = atomic.LoadUint64(&n.stats.OverloadEpisodes)
	ov.PublishRejects = atomic.LoadUint64(&n.stats.PublishRejects)
	ov.RelaySheds = atomic.LoadUint64(&n.stats.RelaySheds)
	return ov
}

// samplePressure computes the node's local pressure signal in [0, 1]:
// the inbound queue's occupancy fraction, and the fraction of downstream
// links whose circuit breaker is open, whichever is worse. Either one
// saturating means work is being lost or refused right now.
func (n *Node) samplePressure() float64 {
	var pressure float64
	if qr, ok := n.tr.(transport.QueueReporter); ok {
		if cap := qr.QueueCapacity(); cap > 0 {
			if frac := float64(qr.QueueDepth()) / float64(cap); frac > pressure {
				pressure = frac
			}
		}
	}
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

// overloadLoop is the pressure sampler: every interval it folds one sample
// into the hysteresis state and sweeps the pending-request map. It runs even
// with the controller disabled — the gauges still want pressure, and the
// pending sweep is a leak bound, not a policy.
func (n *Node) overloadLoop() {
	defer n.done.Done()
	ticker := time.NewTicker(n.cfg.OverloadSampleInterval)
	defer ticker.Stop()
	sweepEvery := int(n.cfg.PendingReqTTL / n.cfg.OverloadSampleInterval / 4)
	if sweepEvery < 1 {
		sweepEvery = 1
	}
	ticks := 0
	for {
		select {
		case <-ticker.C:
			n.overloadTick(n.samplePressure())
			ticks++
			if ticks%sweepEvery == 0 {
				n.sweepPendingReqs(time.Now())
			}
		case <-n.stop:
			return
		}
	}
}

// overloadTick folds one pressure sample into the hysteresis state.
func (n *Node) overloadTick(pressure float64) {
	o := &n.overload
	o.mu.Lock()
	o.pressure = pressure
	var episodeDur time.Duration
	entered := false
	if !o.degraded {
		if pressure >= overloadEnterPressure {
			o.enterStreak++
		} else {
			o.enterStreak = 0
		}
		if o.enterStreak >= overloadEnterSamples && !n.cfg.DisableOverloadControl {
			o.degraded = true
			o.enteredAt = time.Now()
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
			episodeDur = time.Since(o.enteredAt)
			o.exitStreak = 0
		}
	}
	o.mu.Unlock()
	n.metrics.overloadPressure.Observe(pressure)
	if entered {
		atomic.AddUint64(&n.stats.OverloadEpisodes, 1)
	}
	if episodeDur > 0 {
		n.metrics.overloadEpisode.ObserveDurationMs(float64(episodeDur) / float64(time.Millisecond))
	}
}

// sweepPendingReqs drops pending request-correlation entries older than the
// TTL. Waiters remove their own entries on every normal path (and time out
// independently of the map), so anything this old is leaked, not awaited.
func (n *Node) sweepPendingReqs(now time.Time) {
	n.mu.Lock()
	for id, pr := range n.pending {
		if now.Sub(pr.created) > n.cfg.PendingReqTTL {
			delete(n.pending, id)
		}
	}
	n.mu.Unlock()
}

// PendingRequests reports the pending-correlation map's size (leak tests).
func (n *Node) PendingRequests() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

// Breakers reports the transport's per-peer circuit breakers, sorted by
// address (nil when the transport has none — e.g. the in-memory fabric).
func (n *Node) Breakers() []transport.BreakerInfo {
	if br, ok := n.tr.(transport.BreakerReporter); ok {
		return br.Breakers()
	}
	return nil
}

// InboxQueue exposes the transport's class-prioritized inbound queue (nil
// when the transport has none), for experiments and tests that read the
// per-class accepted/shed counters.
func (n *Node) InboxQueue() *transport.PrioInbox {
	if iq, ok := n.tr.(interface{ InboxQueue() *transport.PrioInbox }); ok {
		return iq.InboxQueue()
	}
	return nil
}
