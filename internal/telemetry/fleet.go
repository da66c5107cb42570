package telemetry

import (
	"slices"
	"time"

	"groupcast/internal/wire"
)

// NodeHealth is one fleet-view entry: the newest digest seen for a node plus
// the view-local bookkeeping the operator needs (when it was learned, and
// whether it has gone stale — the fleet's crash-stop signal, since a dead
// node's epoch counter stops advancing and relays of its old digest no
// longer refresh LastSeen).
type NodeHealth struct {
	wire.HealthDigest
	// LastSeen is when this view first accepted the digest's epoch (not when
	// it was last relayed — a circulating stale digest must not look fresh).
	LastSeen time.Time `json:"last_seen"`
	// SeenEpoch is the viewing node's own telemetry epoch at that moment.
	// Staleness is counted from it, in the viewer's ticks rather than in
	// wall time, so a late tick cannot move a detection by an epoch.
	SeenEpoch uint64 `json:"seen_epoch,omitempty"`
	// Stale marks entries whose digest has not advanced for more than the
	// staleness window of viewer epochs at snapshot time.
	Stale bool `json:"stale,omitempty"`
	// Self marks the viewing node's own row.
	Self bool `json:"self,omitempty"`
}

type fleetEntry struct {
	d         wire.HealthDigest
	lastSeen  time.Time
	seenEpoch uint64
}

// Fleet is one node's eventually consistent view of every node it has heard
// a health digest from — directly (heartbeat/beacon piggyback from a
// neighbor) or transitively (digests gossiped through intermediaries). It
// converges the same way the overlay itself does: per-node epoch counters
// make digest application commutative and idempotent, so any gossip order
// yields the same view.
type Fleet struct {
	self  string
	nodes map[string]*fleetEntry
	// others lists the addresses of nodes other than self, sorted; Observe
	// and evictOldest keep it in step with nodes. gossipAt indexes it.
	others   []string
	gossipAt int
	// forgiveAfter is the restart-forgiveness window: a digest whose epoch
	// regresses is normally a stale relay and is dropped, but when the held
	// entry has been silent longer than this, the regression is read as the
	// node having restarted with reset counters (its state file lost) and the
	// fresh lineage is adopted. 0 disables forgiveness.
	forgiveAfter time.Duration
}

// fleetMaxNodes bounds a fleet view's memory: beyond this many distinct
// node addresses, the longest-unseen entry is evicted.
const fleetMaxNodes = 1024

// NewFleet returns an empty view for the node at self.
func NewFleet(self string) *Fleet {
	return &Fleet{self: self, nodes: make(map[string]*fleetEntry)}
}

// SetForgiveAfter arms restart forgiveness: an epoch-regressing digest for a
// node whose entry has been silent longer than d replaces the entry instead
// of being dropped. Set it to a multiple of the staleness window — long
// enough that a merely delayed relay of an old digest cannot win, short
// enough that a node that crashed, lost its state file, and rejoined with
// reset counters is not evicted from fleet views until maxNodes pressure.
func (f *Fleet) SetForgiveAfter(d time.Duration) {
	f.forgiveAfter = d
}

// Observe merges one digest into the view and reports whether it advanced
// anything; epoch is the viewing node's own telemetry epoch. Only a strictly
// higher digest epoch for its node is accepted: replays and stale relays are
// dropped without refreshing LastSeen/SeenEpoch, which is what lets staleness
// detect a crashed node even while its last digest still circulates. The one exception is restart forgiveness (SetForgiveAfter): a
// regressing epoch for a long-silent entry means the node came back with
// reset counters, and the restarted lineage is adopted. evicted names the
// node dropped to make room for a new one ("" when none was), so state kept
// per node elsewhere (the SLO's) can go with it.
func (f *Fleet) Observe(d wire.HealthDigest, now time.Time, epoch uint64) (advanced bool, evicted string) {
	if d.Addr == "" {
		return false, ""
	}
	if e, ok := f.nodes[d.Addr]; ok {
		if d.Epoch <= e.d.Epoch {
			restarted := f.forgiveAfter > 0 && now.Sub(e.lastSeen) > f.forgiveAfter
			if !restarted {
				return false, ""
			}
		}
		e.d, e.lastSeen, e.seenEpoch = d, now, epoch
		return true, ""
	}
	if len(f.nodes) >= fleetMaxNodes {
		evicted = f.evictOldest()
	}
	f.nodes[d.Addr] = &fleetEntry{d: d, lastSeen: now, seenEpoch: epoch}
	if d.Addr != f.self {
		i, _ := slices.BinarySearch(f.others, d.Addr)
		f.others = slices.Insert(f.others, i, d.Addr)
	}
	return true, evicted
}

func (f *Fleet) evictOldest() string {
	var oldest string
	var oldestAt time.Time
	for addr, e := range f.nodes {
		if addr == f.self {
			continue
		}
		if oldest == "" || e.lastSeen.Before(oldestAt) {
			oldest, oldestAt = addr, e.lastSeen
		}
	}
	delete(f.nodes, oldest)
	if i, ok := slices.BinarySearch(f.others, oldest); ok {
		f.others = slices.Delete(f.others, i, i+1)
	}
	return oldest
}

// Snapshot returns the view sorted by node address, marking entries whose
// digest last advanced more than staleEpochs of the viewer's epochs before
// epochNow (0 disables stale marking).
func (f *Fleet) Snapshot(epochNow, staleEpochs uint64) []NodeHealth {
	out := make([]NodeHealth, 0, len(f.nodes))
	row := func(addr string) {
		e := f.nodes[addr]
		out = append(out, NodeHealth{
			HealthDigest: e.d, LastSeen: e.lastSeen, SeenEpoch: e.seenEpoch, Self: addr == f.self,
			Stale: staleEpochs > 0 && epochNow > e.seenEpoch && epochNow-e.seenEpoch > staleEpochs,
		})
	}
	_, hasSelf := f.nodes[f.self]
	for _, addr := range f.others {
		if hasSelf && f.self < addr {
			row(f.self)
			hasSelf = false
		}
		row(addr)
	}
	if hasSelf {
		row(f.self)
	}
	return out
}

// Get returns the current entry for one node address.
func (f *Fleet) Get(addr string) (wire.HealthDigest, bool) {
	e, ok := f.nodes[addr]
	if !ok {
		return wire.HealthDigest{}, false
	}
	return e.d, true
}

// GossipPick selects up to k digests of OTHER nodes to piggyback on an
// outgoing heartbeat or beacon, cycling round-robin through the view (sorted
// by address) so every entry keeps propagating even when k is much smaller
// than the fleet. The caller prepends the node's own fresh digest itself.
func (f *Fleet) GossipPick(k int) []wire.HealthDigest {
	addrs := f.others
	if k <= 0 || len(addrs) == 0 {
		return nil
	}
	if k > len(addrs) {
		k = len(addrs)
	}
	out := make([]wire.HealthDigest, 0, k)
	for i := 0; i < k; i++ {
		addr := addrs[(f.gossipAt+i)%len(addrs)]
		out = append(out, f.nodes[addr].d)
	}
	f.gossipAt = (f.gossipAt + k) % len(addrs)
	return out
}

// Len counts the nodes in the view.
func (f *Fleet) Len() int {
	return len(f.nodes)
}
