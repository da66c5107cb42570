package node

import (
	"sync/atomic"
	"time"

	"groupcast/internal/telemetry"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// This file wires the fleet telemetry plane (internal/telemetry) into the
// live node. Once per telemetry epoch (a multiple of the heartbeat epoch)
// the node samples itself into a compact wire.HealthDigest and a local
// time-series History entry; the digest — plus a round-robin pick of other
// nodes' digests — piggybacks on every outgoing heartbeat, heartbeat ack,
// and beacon, so the fleet view spreads over the links the overlay already
// maintains and converges without any dedicated traffic. Incoming digests
// merge epoch-monotonically into the Fleet view and feed the SLO rules,
// whose transitions land in the trace ring as KindAlert events.

// Telemetry constants. The gossip fan-in is sized so the piggyback (own
// digest + TelemetryGossip others, ≤ ~58 bytes each with every field at
// full width) stays under the 128-byte-per-beacon overhead budget gated by
// TestDigestPiggybackWithinBudget. Raising TelemetryGossip buys faster fleet
// convergence in large clusters (see `groupcast-sim -exp telemetry`) at more
// piggyback bytes.
const (
	DefaultTelemetryGossip = 1
	// telemetryStaleEpochs is how many silent telemetry epochs mark a
	// fleet-view entry stale (and fire the stale SLO rule) — 2 keeps
	// crash-stop detection inside the 3-epoch budget while tolerating one
	// lost piggyback.
	telemetryStaleEpochs = 2
)

// telemetryState is the node's half of the fleet plane: the epoch counter,
// the freshest self digest (what piggybacks out), and the telemetry
// package's primitives. epoch and self are loop state.
type telemetryState struct {
	epoch uint64
	self  wire.HealthDigest

	history *telemetry.History
	fleet   *telemetry.Fleet
	slo     *telemetry.SLO
}

// initTelemetry builds the fleet plane. Called once from New, after the
// metrics registry exists. No-op when DisableTelemetry.
func (n *Node) initTelemetry() {
	if n.cfg.DisableTelemetry {
		return
	}
	ts := &telemetryState{
		history: telemetry.NewHistory(),
		fleet:   telemetry.NewFleet(n.self.Addr),
	}
	// Alert transitions count into Stats and land in the trace ring; the
	// callback runs inside the SLO's evaluation, so it must not call back
	// into it.
	ts.slo = telemetry.NewSLO(func(a telemetry.Alert) {
		if a.Firing {
			atomic.AddUint64(&n.stats.SLOAlerts, 1)
		}
		if n.tracer != nil {
			rule := a.Rule
			if !a.Firing {
				rule += "-resolved"
			}
			n.tracer.Record(trace.Event{
				Time:      n.now,
				Node:      n.self.Addr,
				Kind:      trace.KindAlert,
				Msg:       rule,
				Peer:      a.Node,
				Value:     a.Value,
				Threshold: a.Threshold,
			})
		}
	})
	n.telemetry = ts
	// Restart forgiveness: a node that crashed, lost its state file, and
	// came back with reset epoch counters would otherwise be rejected by
	// every fleet view until eviction. 3× the staleness window is long past
	// any delayed relay of its old digests.
	ts.fleet.SetForgiveAfter(3 * n.telemetryStaleAfter())
}

// telemetryStaleAfter is the staleness window applied to fleet snapshots
// (a telemetry epoch is one heartbeat epoch).
func (n *Node) telemetryStaleAfter() time.Duration {
	return telemetryStaleEpochs * n.cfg.HeartbeatInterval
}

// telemetryEpoch runs once per heartbeat epoch on the loop: sample self into
// a fresh digest and the registry into the history, then sweep the fleet
// view for staleness.
func (n *Node) telemetryEpoch() {
	ts := n.telemetry
	if ts == nil {
		return
	}
	ts.epoch++
	ts.self = n.buildDigest()
	ts.self.Epoch = ts.epoch
	ts.fleet.Observe(ts.self, n.now, ts.epoch)
	ts.slo.Observe(ts.self, n.now)
	ts.history.Observe(ts.epoch, n.now, n.metrics.reg.Snapshot())

	// Staleness sweep: a node whose digest stopped advancing past the window
	// — counted in this node's own epochs, not wall time — is the fleet's
	// crash-stop signal: raise (or clear) the stale rule.
	for _, nh := range ts.fleet.Snapshot(ts.epoch, telemetryStaleEpochs) {
		if nh.Self {
			continue
		}
		ts.slo.MarkStale(nh.Addr, nh.Stale, n.now.Sub(nh.LastSeen), n.now, ts.epoch)
	}
}

// buildDigest samples this node into a health digest (Epoch is filled by the
// caller).
func (n *Node) buildDigest() wire.HealthDigest {
	d := wire.HealthDigest{Addr: n.self.Addr}
	// Utility: mean Eq. 6 selection preference over this node's tree links —
	// the same per-link numbers /debug/tree reports.
	var sum float64
	var links int
	for _, td := range n.treeDetails() {
		for _, l := range td.Links {
			sum += l.Utility
			links++
		}
	}
	if links > 0 {
		d.Utility = sum / float64(links)
	}
	d.Pressure = n.overload.pressure
	d.Degraded = n.overload.degraded
	d.P99Ms = n.metrics.publishDeliver.Snapshot().Quantile(0.99)
	d.Inbox = uint64(n.inbox.Depth())
	d.Delivered = atomic.LoadUint64(&n.stats.Delivered)
	shed := atomic.LoadUint64(&n.stats.PublishRejects) + atomic.LoadUint64(&n.stats.RelaySheds)
	if dc, ok := n.tr.(transport.DropCounter); ok {
		shed += dc.DropStats().InboxSheds
	}
	d.Shed = shed
	return d
}

// telemetryHealth returns the digests to piggyback on one outgoing
// heartbeat, ack, or beacon: the node's own freshest digest plus a
// round-robin pick of others, or nil before the first sample (and when
// telemetry is disabled — the wire field is then absent and the encoding is
// byte-identical to a pre-telemetry node's).
func (n *Node) telemetryHealth() []wire.HealthDigest {
	ts := n.telemetry
	if ts == nil || ts.self.Epoch == 0 {
		return nil
	}
	return append([]wire.HealthDigest{ts.self}, ts.fleet.GossipPick(n.cfg.TelemetryGossip)...)
}

// observeHealth merges the digests riding an inbound message into the fleet
// view. Accepted (epoch-advancing) digests also feed the SLO rules, and a
// node the view evicts to make room leaves the SLO too: its state and any
// alert it had firing.
func (n *Node) observeHealth(msg wire.Message) {
	ts := n.telemetry
	if ts == nil || len(msg.Health) == 0 {
		return
	}
	for _, d := range msg.Health {
		if d.Addr == n.self.Addr {
			continue // our own digest gossiped back
		}
		atomic.AddUint64(&n.stats.TelemetryDigestsReceived, 1)
		advanced, evicted := ts.fleet.Observe(d, n.now, ts.epoch)
		if evicted != "" {
			ts.slo.Forget(evicted)
		}
		if advanced {
			ts.slo.Observe(d, n.now)
		}
	}
}

// countHealthSent tallies digests piggybacked out on sends.
func (n *Node) countHealthSent(digests, links int) {
	if digests > 0 && links > 0 {
		atomic.AddUint64(&n.stats.TelemetryDigestsSent, uint64(digests*links))
	}
}

// FleetView returns this node's eventually consistent view of the fleet,
// sorted by address with staleness marked (nil when telemetry is disabled).
func (n *Node) FleetView() (out []telemetry.NodeHealth) {
	n.post(func() {
		if ts := n.telemetry; ts != nil {
			out = ts.fleet.Snapshot(ts.epoch, telemetryStaleEpochs)
		}
	})
	return out
}

// TelemetryHistory returns the node's buffered time-series samples, oldest
// first (nil when telemetry is disabled).
func (n *Node) TelemetryHistory() (out []telemetry.Sample) {
	if ts := n.telemetry; ts != nil {
		n.post(func() { out = ts.history.Snapshot() })
	}
	return out
}

// SLOActive returns the currently firing SLO alerts across the fleet view
// (nil when telemetry is disabled).
func (n *Node) SLOActive() (out []telemetry.Alert) {
	if ts := n.telemetry; ts != nil {
		n.post(func() { out = ts.slo.Active() })
	}
	return out
}

// ClusterView is the /debug/cluster document: this node's fleet view, the
// firing alerts, and the plane's effective configuration.
type ClusterView struct {
	Addr    string `json:"addr"`
	Enabled bool   `json:"enabled"`
	// Epoch is this node's own telemetry epoch counter.
	Epoch        uint64                 `json:"epoch,omitempty"`
	IntervalMs   float64                `json:"interval_ms,omitempty"`
	StaleAfterMs float64                `json:"stale_after_ms,omitempty"`
	SLO          telemetry.SLOConfig    `json:"slo"`
	Nodes        []telemetry.NodeHealth `json:"nodes,omitempty"`
	Alerts       []telemetry.Alert      `json:"alerts,omitempty"`
}

// ClusterView snapshots the fleet plane for /debug/cluster and
// groupcast-top.
func (n *Node) ClusterView() (cv ClusterView) {
	ts := n.telemetry
	cv = ClusterView{Addr: n.self.Addr, Enabled: ts != nil}
	if ts == nil {
		return cv
	}
	cv.IntervalMs = float64(n.cfg.HeartbeatInterval) / float64(time.Millisecond)
	cv.StaleAfterMs = float64(n.telemetryStaleAfter()) / float64(time.Millisecond)
	cv.SLO = ts.slo.Config()
	n.post(func() {
		cv.Epoch = ts.epoch
		cv.Nodes = ts.fleet.Snapshot(ts.epoch, telemetryStaleEpochs)
		cv.Alerts = ts.slo.Active()
	})
	return cv
}
