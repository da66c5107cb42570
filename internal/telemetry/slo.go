package telemetry

import (
	"sort"
	"time"

	"groupcast/internal/wire"
)

// SLO rule names, used as Alert.Rule and as the Msg of the KindAlert trace
// events the node records.
const (
	// RuleDeliveryRatio fires when a node's interval delivery ratio
	// delivered/(delivered+shed) drops below the floor.
	RuleDeliveryRatio = "delivery-ratio"
	// RuleP99Latency fires when a node's reported p99 publish→deliver
	// latency exceeds the ceiling.
	RuleP99Latency = "p99-latency"
	// RulePressure fires when a node's overload pressure exceeds the
	// ceiling.
	RulePressure = "pressure"
	// RuleStale fires when a node's digest stops advancing for the
	// staleness window — the fleet's crash-stop detector. It has no sample
	// dwell of its own: the staleness window is the dwell.
	RuleStale = "stale"
)

// SLOConfig bounds what "healthy" means for every node in the fleet view.
// Every SLO runs DefaultSLOConfig; the type is what /debug/cluster reports.
type SLOConfig struct {
	MinDeliveryRatio float64 `json:"min_delivery_ratio"`
	MaxP99Ms         float64 `json:"max_p99_ms"`
	MaxPressure      float64 `json:"max_pressure"`
	// EnterSamples is how many consecutive violating digests raise an
	// alert; ExitSamples how many consecutive healthy ones clear it.
	EnterSamples int `json:"enter_samples"`
	ExitSamples  int `json:"exit_samples"`
}

// DefaultSLOConfig returns the rule set. The dwell counts mirror the
// overload controller (3 consecutive samples to enter, 5 to exit) so one
// noisy digest neither raises nor clears an alert.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		MinDeliveryRatio: 0.90,
		MaxP99Ms:         250,
		MaxPressure:      0.90,
		EnterSamples:     3,
		ExitSamples:      5,
	}
}

// Alert is one structured SLO event: a rule crossing into violation for a
// node (Firing true) or recovering (Firing false). Value is the measurement
// that crossed (or cleared) Threshold.
type Alert struct {
	Rule      string    `json:"rule"`
	Node      string    `json:"node"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	Firing    bool      `json:"firing"`
	Since     time.Time `json:"since,omitempty"`
	// Epoch is the evaluating node's own telemetry epoch at the staleness
	// sweep that raised a stale alert (0 for the digest-driven rules).
	Epoch uint64 `json:"epoch,omitempty"`
}

type ruleState struct {
	firing           bool
	streak           int
	since            time.Time
	sinceEpoch       uint64
	value, threshold float64
}

// SLO evaluates the rule set against the stream of accepted health digests
// (one Observe per fleet-view advance) plus the staleness signal, holding
// each (node, rule) pair in enter/exit hysteresis. Transitions are pushed to
// the emit callback; Active lists what is currently firing.
type SLO struct {
	cfg   SLOConfig
	emit  func(Alert)
	state map[string]*ruleState
	prev  map[string]wire.HealthDigest
}

// NewSLO returns an evaluator of DefaultSLOConfig. emit may be nil (poll
// Active instead); it is called synchronously from inside Observe and
// MarkStale, so it must not call back into the SLO.
func NewSLO(emit func(Alert)) *SLO {
	return &SLO{
		cfg:   DefaultSLOConfig(),
		emit:  emit,
		state: make(map[string]*ruleState),
		prev:  make(map[string]wire.HealthDigest),
	}
}

// Config returns the rule set in effect.
func (s *SLO) Config() SLOConfig { return s.cfg }

// Observe evaluates the per-digest rules for one node. Call it only with
// digests the fleet view accepted (strictly advancing epochs), so each call
// is one fresh sample for the dwell counters.
func (s *SLO) Observe(d wire.HealthDigest, now time.Time) {
	prev, hadPrev := s.prev[d.Addr]
	s.prev[d.Addr] = d
	// A fresh digest means the node is alive again: clear any stale alert.
	s.step(d.Addr, RuleStale, 0, 0, false, now, 0, true)
	if hadPrev {
		// Interval ratio, not lifetime: detection should track the current
		// epoch's behaviour, not be damped by a long healthy past. No
		// traffic in the interval is no sample — the dwell holds.
		dDel := d.Delivered - prev.Delivered
		dShed := d.Shed - prev.Shed
		if total := dDel + dShed; total > 0 {
			ratio := float64(dDel) / float64(total)
			s.step(d.Addr, RuleDeliveryRatio, ratio, s.cfg.MinDeliveryRatio,
				ratio < s.cfg.MinDeliveryRatio, now, 0, false)
		}
	}
	if d.P99Ms > 0 {
		s.step(d.Addr, RuleP99Latency, d.P99Ms, s.cfg.MaxP99Ms,
			d.P99Ms > s.cfg.MaxP99Ms, now, 0, false)
	}
	s.step(d.Addr, RulePressure, d.Pressure, s.cfg.MaxPressure,
		d.Pressure > s.cfg.MaxPressure, now, 0, false)
}

// MarkStale drives the staleness rule from the fleet snapshot: call it each
// epoch for every known node with that node's current stale flag and the
// caller's own epoch. The staleness window already provides the dwell, so
// transitions are immediate.
func (s *SLO) MarkStale(addr string, stale bool, sinceSeen time.Duration, now time.Time, epoch uint64) {
	s.step(addr, RuleStale, sinceSeen.Seconds(), 0, stale, now, epoch, true)
}

// step advances one (node, rule) hysteresis cell by one sample.
// immediate skips the dwell counters (the stale rule).
func (s *SLO) step(node, rule string, value, threshold float64, violating bool, now time.Time, epoch uint64, immediate bool) {
	key := node + "\x00" + rule
	st := s.state[key]
	if st == nil {
		if !violating {
			return
		}
		st = &ruleState{}
		s.state[key] = st
	}
	st.value, st.threshold = value, threshold
	enter, exit := s.cfg.EnterSamples, s.cfg.ExitSamples
	if immediate {
		enter, exit = 1, 1
	}
	if !st.firing {
		if !violating {
			st.streak = 0
			return
		}
		st.streak++
		if st.streak < enter {
			return
		}
		st.firing, st.streak, st.since, st.sinceEpoch = true, 0, now, epoch
		if s.emit != nil {
			s.emit(Alert{Rule: rule, Node: node, Value: value,
				Threshold: threshold, Firing: true, Since: now, Epoch: epoch})
		}
		return
	}
	if violating {
		st.streak = 0
		return
	}
	st.streak++
	if st.streak < exit {
		return
	}
	st.firing, st.streak = false, 0
	if s.emit != nil {
		s.emit(Alert{Rule: rule, Node: node, Value: value,
			Threshold: threshold, Firing: false, Since: st.since, Epoch: st.sinceEpoch})
	}
}

// Forget drops all state for a node (evicted from the fleet view).
func (s *SLO) Forget(addr string) {
	delete(s.prev, addr)
	for key := range s.state {
		if len(key) > len(addr) && key[:len(addr)] == addr && key[len(addr)] == '\x00' {
			delete(s.state, key)
		}
	}
}

// Active returns the currently firing alerts, sorted by (node, rule).
func (s *SLO) Active() []Alert {
	out := make([]Alert, 0, len(s.state))
	for key, st := range s.state {
		if !st.firing {
			continue
		}
		var node, rule string
		for i := 0; i < len(key); i++ {
			if key[i] == '\x00' {
				node, rule = key[:i], key[i+1:]
				break
			}
		}
		out = append(out, Alert{Rule: rule, Node: node, Value: st.value,
			Threshold: st.threshold, Firing: true, Since: st.since, Epoch: st.sinceEpoch})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}
