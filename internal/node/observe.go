package node

import (
	"sort"
	"sync/atomic"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/core"
	"groupcast/internal/metrics"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// This file is the node's observability surface: the always-on metrics
// registry (lock-free counters and histograms, cheap enough for the hot
// path), the opt-in message tracer, and the structured snapshots the
// introspection endpoint serves (/debug/tree, /debug/overlay).

// Metric and histogram names registered by the node. The introspection
// endpoint serves them under /debug/vars; docs/OBSERVABILITY.md catalogs
// them.
const (
	MetricPublishDeliverLatency = "publish_deliver_latency_ms"
	MetricRelayHopLatency       = "relay_hop_latency_ms"
	MetricNackRTT               = "nack_rtt_ms"
	MetricHeartbeatRTT          = "heartbeat_rtt_ms"
	MetricRecvQueueDepth        = "recv_queue_depth"
	MetricHandlerQueueDepth     = "handler_queue_depth"
	MetricSuccessionTTR         = "succession_ttr_ms"
	MetricOverloadPressure      = "overload_pressure"
	MetricOverloadEpisode       = "overload_episode_ms"
	MetricDhtLookup             = "dht_lookup_ms"
)

// overloadPressureBuckets spans the pressure signal's [0, 1] domain; the
// 0.25/0.75 edges line up with the default hysteresis thresholds so the
// histogram shows time spent inside and outside the band.
func overloadPressureBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
}

// nodeMetrics holds the node's registered instruments. The histogram
// pointers are resolved once at construction so hot paths skip the registry
// map lookup.
type nodeMetrics struct {
	reg *metrics.Registry

	publishDeliver   *metrics.FixedHistogram
	relayHop         *metrics.FixedHistogram
	nackRTT          *metrics.FixedHistogram
	heartbeatRTT     *metrics.FixedHistogram
	successionTTR    *metrics.FixedHistogram
	overloadPressure *metrics.FixedHistogram
	overloadEpisode  *metrics.FixedHistogram
	dhtLookup        *metrics.FixedHistogram
}

// initObservability wires the metrics registry (always on) and registers
// the node's gauges. Called once from New, before any loop starts. The
// gauges read loop state, so every registry snapshot is taken on the loop
// (MetricsSnapshot, the history sample).
func (n *Node) initObservability() {
	reg := metrics.NewRegistry()
	n.metrics = nodeMetrics{
		reg:              reg,
		publishDeliver:   reg.Histogram(MetricPublishDeliverLatency, metrics.DefaultLatencyBuckets()),
		relayHop:         reg.Histogram(MetricRelayHopLatency, metrics.DefaultLatencyBuckets()),
		nackRTT:          reg.Histogram(MetricNackRTT, metrics.DefaultLatencyBuckets()),
		heartbeatRTT:     reg.Histogram(MetricHeartbeatRTT, metrics.DefaultLatencyBuckets()),
		successionTTR:    reg.Histogram(MetricSuccessionTTR, metrics.DefaultLatencyBuckets()),
		overloadPressure: reg.Histogram(MetricOverloadPressure, overloadPressureBuckets()),
		overloadEpisode:  reg.Histogram(MetricOverloadEpisode, metrics.DefaultLatencyBuckets()),
		dhtLookup:        reg.Histogram(MetricDhtLookup, metrics.DefaultLatencyBuckets()),
	}
	// Every scalar of Stats is a registry counter under its snake_case name
	// ("delivered", "transport_inbox_sheds", …): the node's own ticks plus
	// what the transport and the tracer counted (externalStats).
	for _, f := range statFields {
		live := f.Ptr(&n.stats.Stats)
		reg.Counter(f.Name, func() uint64 {
			ext := n.externalStats()
			return atomic.LoadUint64(live) + *f.Ptr(&ext)
		})
	}
	reg.Gauge("neighbors", func() float64 {
		return float64(len(n.neighbors))
	})
	if d := n.dht; d != nil {
		reg.Gauge("dht_routing_table_size", func() float64 {
			return float64(d.table.Len())
		})
		reg.Gauge("dht_bucket_depth", func() float64 {
			return float64(d.table.MaxBucketDepth())
		})
		reg.Gauge("dht_records", func() float64 {
			return float64(d.store.Len())
		})
		// The adaptive maintenance signal: observed churn events per second.
		reg.Gauge("dht_churn_rate", func() float64 {
			return d.churn.Rate(n.now)
		})
	}
	reg.Gauge(MetricRecvQueueDepth, func() float64 {
		return float64(n.inbox.Depth())
	})
	reg.Gauge(MetricHandlerQueueDepth, func() float64 {
		if n.out == nil {
			return 0
		}
		return float64(n.out.depth.Load())
	})
	if br, ok := n.tr.(transport.BreakerReporter); ok {
		reg.Gauge("transport_breakers_open", func() float64 {
			open := 0
			for _, b := range br.Breakers() {
				if b.State == "open" {
					open++
				}
			}
			return float64(open)
		})
	}
	if oq, ok := n.tr.(interface{ OutboundQueueDepth() int }); ok {
		reg.Gauge("transport_outbound_queue_depth", func() float64 {
			return float64(oq.OutboundQueueDepth())
		})
	}
	reg.Gauge("overload_degraded", func() float64 {
		if n.overload.degraded {
			return 1
		}
		return 0
	})
	reg.Gauge("pending_requests", func() float64 {
		return float64(n.pendingRequests())
	})
	reg.Gauge("reliable_pending_gaps", func() float64 {
		gaps, _, _, _ := n.reliableOccupancy()
		return float64(gaps)
	})
	reg.Gauge("reliable_pending_ordered", func() float64 {
		_, ordered, _, _ := n.reliableOccupancy()
		return float64(ordered)
	})
	reg.Gauge("reliable_window_entries", func() float64 {
		_, _, entries, _ := n.reliableOccupancy()
		return float64(entries)
	})
	reg.Gauge("reliable_cached_payloads", func() float64 {
		_, _, _, cached := n.reliableOccupancy()
		return float64(cached)
	})
	reg.Gauge("reliable_oldest_gap_age_ms", func() float64 {
		return n.oldestGapAge().Seconds() * 1000
	})
}

// reliableOccupancy sums the reliable data plane's bounded state across all
// groups: pending gaps, payloads held back for ordered release, window
// entries, and cached payloads.
func (n *Node) reliableOccupancy() (gaps, ordered, entries, cached int) {
	for _, gs := range n.groups {
		for _, w := range gs.recv {
			gaps += w.PendingGaps()
			ordered += w.PendingOrdered()
			entries += w.Tracked()
			cached += w.Cached()
		}
		if gs.pub != nil {
			cached += gs.pub.Cached()
		}
	}
	return gaps, ordered, entries, cached
}

// oldestGapAge is the age of the longest-outstanding sequence gap across
// every receive window (0 when recovery is idle).
func (n *Node) oldestGapAge() time.Duration {
	var oldest time.Duration
	for _, gs := range n.groups {
		for _, w := range gs.recv {
			if age := w.OldestGapAge(n.now); age > oldest {
				oldest = age
			}
		}
	}
	return oldest
}

// MetricsSnapshot reads every instrument of the node's registry at once,
// on the loop that owns what its gauges read.
func (n *Node) MetricsSnapshot() (snap metrics.RegistrySnapshot) {
	n.post(func() { snap = n.metrics.reg.Snapshot() })
	return snap
}

// Tracer returns the node's tracer (nil when tracing is disabled).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// TraceEvents returns the newest n buffered trace events, oldest first
// (n <= 0 returns everything buffered; nil when tracing is disabled).
func (n *Node) TraceEvents(limit int) []trace.Event {
	if n.tracer == nil {
		return nil
	}
	return n.tracer.Events(limit)
}

// traceRecv records the ingestion of one traced message type at the event's
// stamp, folding in the handling time. No-op without a tracer.
func (n *Node) traceRecv(msg *wire.Message, handleDur time.Duration) {
	ev := trace.Event{
		Time:     n.now,
		Node:     n.self.Addr,
		Kind:     trace.KindRecv,
		Msg:      msg.Type.String(),
		Group:    msg.GroupID,
		TraceID:  msg.TraceID,
		Seq:      msg.Seq,
		Peer:     msg.From.Addr,
		Hop:      msg.Hops,
		HandleUS: handleDur.Microseconds(),
	}
	if msg.Type == wire.TPayload {
		ev.Source = msg.From.Addr
		if msg.Relay.Addr != "" {
			ev.Peer = msg.Relay.Addr
		}
	}
	if msg.Type == wire.TNack {
		ev.Source = msg.NackSource
		ev.N = len(msg.NackSeqs)
	}
	if !msg.RelayedAt.IsZero() {
		if q := n.now.Sub(msg.RelayedAt); q > 0 {
			ev.QueueUS = q.Microseconds()
		}
	}
	if !msg.OriginAt.IsZero() {
		if age := n.now.Sub(msg.OriginAt); age > 0 {
			ev.AgeUS = age.Microseconds()
		}
	}
	n.tracer.Record(ev)
}

// LinkDetail describes one tree link for /debug/tree: the peer's identity
// plus the latency estimate (coordinate distance) and Eq. 6 selection
// preference this node computes for it.
type LinkDetail struct {
	Addr     string  `json:"addr"`
	Role     string  `json:"role"` // "parent" or "child"
	Capacity float64 `json:"capacity"`
	// LatencyMs is the coordinate-space distance to the peer — the latency
	// estimate the utility model runs on.
	LatencyMs float64 `json:"latency_ms"`
	// Utility is the peer's normalized Selection Preference (Eq. 6) among
	// this node's tree links (0 when it cannot be computed).
	Utility float64 `json:"utility"`
}

// TreeDetail is one group's tree attachment with per-link detail, as served
// by /debug/tree.
type TreeDetail struct {
	Group      string       `json:"group"`
	Mode       string       `json:"mode"`
	Member     bool         `json:"member"`
	Rendezvous bool         `json:"rendezvous"`
	Attached   bool         `json:"attached"`
	Links      []LinkDetail `json:"links,omitempty"`
	Backups    []string     `json:"backups,omitempty"`
	RootPath   []string     `json:"root_path,omitempty"`
	// Epoch is the group's succession epoch as this node knows it (1 at
	// creation, +1 per root takeover).
	Epoch uint64 `json:"epoch,omitempty"`
	// Promoted marks a rendezvous that won the role through succession
	// rather than creating the group.
	Promoted bool `json:"promoted,omitempty"`
	// Deputies is the succession roster last replicated by the root.
	Deputies []string `json:"deputies,omitempty"`
	// CharterEpoch is non-zero when this node holds a replicated charter —
	// it is armed to promote if the root goes silent.
	CharterEpoch uint64 `json:"charter_epoch,omitempty"`
}

// TreeDetails snapshots every group's tree attachment with per-link utility
// and latency estimates, sorted by group ID.
func (n *Node) TreeDetails() (out []TreeDetail) {
	n.post(func() { out = n.treeDetails() })
	return out
}

// treeDetails is TreeDetails' body, shared with the loop's health digest.
func (n *Node) treeDetails() []TreeDetail {
	type linkPeer struct {
		info wire.PeerInfo
		role string
	}
	out := make([]TreeDetail, 0, len(n.groups))
	for _, gid := range n.groupIDs() {
		gs := n.groups[gid]
		td := TreeDetail{
			Group:        gid,
			Mode:         gs.mode.String(),
			Member:       gs.member,
			Rendezvous:   gs.rendezvous,
			Attached:     gs.rendezvous || gs.parent != "",
			RootPath:     append([]string(nil), gs.rootPath...),
			Epoch:        gs.epoch,
			Promoted:     gs.promoted,
			Deputies:     addrsOf(gs.deputies),
			CharterEpoch: gs.charter.Epoch,
		}
		for _, b := range gs.backups {
			td.Backups = append(td.Backups, b.Addr)
		}
		var peers []linkPeer
		if gs.parent != "" {
			peers = append(peers, linkPeer{gs.parentInfo, "parent"})
		}
		for _, info := range gs.children {
			peers = append(peers, linkPeer{info, "child"})
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i].info.Addr < peers[j].info.Addr })
		cands := make([]core.Candidate, len(peers))
		for i, p := range peers {
			cands[i] = n.candidate(p.info)
		}
		prefs, err := core.SelectionPreferencesFor(core.ResourceLevel(n.cfg.Capacity, cands), cands)
		for i, p := range peers {
			ld := LinkDetail{
				Addr:      p.info.Addr,
				Role:      p.role,
				Capacity:  p.info.Capacity,
				LatencyMs: cands[i].Distance,
			}
			if err == nil && i < len(prefs) {
				ld.Utility = prefs[i]
			}
			td.Links = append(td.Links, ld)
		}
		out = append(out, td)
	}
	return out
}

// NeighborDetail describes one overlay neighbour for /debug/overlay.
type NeighborDetail struct {
	Addr     string  `json:"addr"`
	Capacity float64 `json:"capacity"`
	// LatencyMs is the coordinate-space distance (the RTT estimate the
	// utility model uses; live RTTs feed it under Vivaldi).
	LatencyMs float64 `json:"latency_ms"`
	// LastAckMs is how long ago the neighbour last answered a heartbeat.
	LastAckMs float64 `json:"last_ack_ms"`
	// Suspect marks a neighbour that missed a heartbeat and is being
	// re-probed.
	Suspect bool `json:"suspect,omitempty"`
}

// OverlayDetail is the node's neighbour table with epoch state, as served
// by /debug/overlay.
type OverlayDetail struct {
	Addr     string           `json:"addr"`
	Coord    []float64        `json:"coord,omitempty"`
	CoordErr float64          `json:"coord_err,omitempty"`
	Capacity float64          `json:"capacity"`
	Quota    int              `json:"quota"`
	Vivaldi  bool             `json:"vivaldi,omitempty"`
	Peers    []NeighborDetail `json:"peers,omitempty"`
}

// OverlayView snapshots the neighbour table with per-peer liveness state.
func (n *Node) OverlayView() (od OverlayDetail) {
	n.post(func() {
		od = OverlayDetail{
			Addr:     n.self.Addr,
			Coord:    coords.Point(n.self.Coord).Clone(),
			CoordErr: n.self.CoordErr,
			Capacity: n.self.Capacity,
			Quota:    n.quota(),
			Vivaldi:  n.vivaldi != nil,
		}
		for _, addr := range sortedKeys(n.neighbors) {
			nb := n.neighbors[addr]
			od.Peers = append(od.Peers, NeighborDetail{
				Addr:      nb.info.Addr,
				Capacity:  nb.info.Capacity,
				LatencyMs: n.dist(n.self, nb.info),
				LastAckMs: float64(n.now.Sub(nb.lastAck)) / float64(time.Millisecond),
				Suspect:   nb.suspect,
			})
		}
	})
	return od
}
