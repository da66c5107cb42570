package node

import (
	"reflect"
	"sync/atomic"

	"groupcast/internal/metrics"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// Stats are cumulative message counters for one live node, split by
// direction and message type. All fields are monotonically increasing.
type Stats struct {
	Sent     map[string]uint64
	Received map[string]uint64
	// Delivered counts payloads handed to the application.
	Delivered uint64
	// DuplicatesDropped counts payloads and advertisements discarded by the
	// MsgID dedup filter.
	DuplicatesDropped uint64
	// Retries counts retransmission attempts (probe, join, repair) taken
	// after a timeout or send failure.
	Retries uint64
	// Suspected counts neighbours that entered the suspect state (silent
	// past 1.5 heartbeat intervals) before either recovering or dying.
	Suspected uint64
	// NeighborsDeclaredDead counts neighbours removed by the failure
	// detector after the full heartbeat grace elapsed.
	NeighborsDeclaredDead uint64
	// RepairsViaBackup counts tree reattachments that succeeded through a
	// precomputed backup access point.
	RepairsViaBackup uint64
	// RepairsViaSearch counts tree reattachments that fell back to the
	// reverse-path / ripple-search join.
	RepairsViaSearch uint64
	// SendErrors counts sends the transport failed immediately (closed
	// endpoint, unknown peer, crashed or partitioned destination; on TCP a
	// full queue or an open breaker). Silent wire loss is not counted here
	// — the transport cannot see it — and neither is a failed TCP dial,
	// which the link's writer counts as a transport fabric drop.
	SendErrors uint64
	// NacksSent counts retransmission requests this node originated for its
	// own sequence gaps; NacksForwarded counts NACKs escalated upstream on
	// behalf of another node after a local cache miss.
	NacksSent      uint64
	NacksForwarded uint64
	// Retransmits counts payloads this node re-sent from a retransmission
	// buffer in answer to a NACK.
	Retransmits uint64
	// GapsDetected / GapsRecovered / GapsAbandoned count per-source sequence
	// gaps opened by out-of-order arrival or digests, closed by a late or
	// retransmitted payload, and given up (fell off the window or exhausted
	// NACK attempts).
	GapsDetected  uint64
	GapsRecovered uint64
	GapsAbandoned uint64
	// OutOfWindow counts payloads discarded for falling below the receive
	// window (too old to track).
	OutOfWindow uint64
	// Promotions counts groups this node took over as rendezvous through
	// succession (staggered deputy timeout or explicit handoff); Demotions
	// counts rendezvous roles this node surrendered to a higher-priority
	// root after a partition heal.
	Promotions uint64
	Demotions  uint64
	// CharterReplications counts charters this rendezvous attached to deputy
	// beacons (the succession plane's overhead).
	CharterReplications uint64
	// OrphansReabsorbed counts subtree roots that re-attached under this node
	// after it promoted — the heal converging.
	OrphansReabsorbed uint64
	// OverloadEpisodes counts entries into the degraded state (overload
	// controller hysteresis flips); PublishRejects counts best-effort
	// publishes refused with ErrBackpressure while degraded; RelaySheds
	// counts best-effort payload fan-outs skipped while degraded (the
	// payload was still delivered locally).
	OverloadEpisodes uint64
	PublishRejects   uint64
	RelaySheds       uint64
	// DhtLookups counts iterative DHT lookups this node ran (joins, record
	// replication, bucket refresh); DhtFallbacks counts joins that missed
	// in the DHT and fell back to the ripple search; DhtStores counts
	// charter record replications this node originated as a rendezvous.
	DhtLookups   uint64
	DhtFallbacks uint64
	DhtStores    uint64
	// DhtRescues counts rescue re-replications: a held record re-pushed (or a
	// charter republished early) because one of its replica holders was
	// evicted from the k-closest set.
	DhtRescues uint64
	// StateSaves counts recovery state-file writes; StateRestores counts
	// restarts that reloaded a matching state file (0 or 1 per process).
	StateSaves    uint64
	StateRestores uint64
	// TelemetryDigestsSent counts health digests piggybacked out on
	// heartbeats, acks, and beacons; TelemetryDigestsReceived counts digests
	// about other nodes taken in from peers (accepted or not).
	TelemetryDigestsSent     uint64
	TelemetryDigestsReceived uint64
	// SLOAlerts counts SLO rules that entered the firing state in this
	// node's fleet view (recoveries are not counted).
	SLOAlerts uint64
	// TraceWriteErrors counts failed or dropped writes on the tracer's file
	// sink (0 without a -trace-file sink).
	TraceWriteErrors uint64
	// Transport reports the transport layer's drop accounting (inbox
	// sheds, send failures, chaos-injected faults) when the node's
	// transport exposes it; zero otherwise.
	Transport transport.DropStats
}

// tally is the node's live counter set: the per-wire.Type arrays, then a
// Stats holding the scalars in place, so the counter list exists once. That
// Stats is live memory — touch it only through sync/atomic (a tick is one
// atomic.AddUint64 on a fixed, 8-aligned address). Its maps stay nil and the
// scalars other layers own stay zero (see externalStats).
type tally struct {
	sent, received [32]atomic.Uint64 // indexed by wire.Type
	Stats
}

// statFields is the one walk of the Stats declaration every view loops over.
var statFields = metrics.CounterFields(reflect.TypeOf(Stats{}))

func tickType(arr *[32]atomic.Uint64, t wire.Type) {
	if t > 0 && int(t) < len(arr) {
		arr[t].Add(1)
	}
}

func byType(arr *[32]atomic.Uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for t := 1; t < len(arr); t++ {
		if v := arr[t].Load(); v > 0 {
			out[wire.Type(t).String()] = v
		}
	}
	return out
}

// externalStats reads the counters the node reports but does not tick: the
// tracer's sink errors and the transport's drop accounting.
func (n *Node) externalStats() Stats {
	out := Stats{TraceWriteErrors: n.tracer.SinkErrors()}
	if dc, ok := n.tr.(transport.DropCounter); ok {
		out.Transport = dc.DropStats()
	}
	return out
}

// Stats returns a snapshot of the node's message counters.
func (n *Node) Stats() Stats {
	out := n.externalStats()
	metrics.FoldCounters(statFields, &out, &n.stats.Stats, metrics.LoadCounter)
	out.Sent, out.Received = byType(&n.stats.sent), byType(&n.stats.received)
	return out
}

// Merge folds other's counters into s (fleet-wide aggregation: sum each
// node's snapshot into one). Nil maps are allocated on demand.
func (s *Stats) Merge(other Stats) {
	sum := func(dst, src map[string]uint64) map[string]uint64 {
		if dst == nil {
			dst = make(map[string]uint64)
		}
		for k, v := range src {
			dst[k] += v
		}
		return dst
	}
	s.Sent, s.Received = sum(s.Sent, other.Sent), sum(s.Received, other.Received)
	metrics.FoldCounters(statFields, s, &other, metrics.AddCounter)
}

// Delta returns the counters gained since base (the interval between two
// snapshots of one node). Counters are monotonic, so a difference saturates
// at 0 if base is newer; per-type entries that did not move are omitted.
func (s Stats) Delta(base Stats) Stats {
	sub := func(now, base map[string]uint64) map[string]uint64 {
		out := make(map[string]uint64)
		for k, v := range now {
			if v > base[k] {
				out[k] = v - base[k]
			}
		}
		return out
	}
	metrics.FoldCounters(statFields, &s, &base, metrics.SubCounter) // s is a copy
	s.Sent, s.Received = sub(s.Sent, base.Sent), sub(s.Received, base.Received)
	return s
}
