package reliable

import (
	"math"
	"sort"
	"time"

	"groupcast/internal/wire"
)

// SendBuffer is a publisher's per-group sequencer and sliding send buffer:
// it stamps monotonically increasing sequence numbers on outgoing payloads
// (first sequence is 1) and retains the most recent ones so the publisher
// can answer NACKs for anything a receiver missed.
type SendBuffer struct {
	seq   uint64
	cache *PayloadCache
}

// NewSendBuffer returns a send buffer retaining up to capacity payloads.
func NewSendBuffer(capacity int) *SendBuffer {
	return &SendBuffer{cache: NewPayloadCache(capacity)}
}

// NextItem allocates the next sequence number and retains the item —
// payload plus trace identity — under it, so NACK answers re-carry the
// original trace ID and origin timestamp.
func (b *SendBuffer) NextItem(item Item) uint64 {
	b.seq++
	b.cache.PutItem(b.seq, item)
	return b.seq
}

// High returns the highest sequence allocated so far (0 before the first).
func (b *SendBuffer) High() uint64 { return b.seq }

// Seed resumes numbering after a restart: the next allocated sequence will
// be high+1, so subscribers see one continuous FIFO stream across the
// publisher's crash. No payloads are retained for the pre-restart range (a
// NACK for them is answered by whoever cached the relays, or abandoned).
// No-op when the buffer has already allocated past high.
func (b *SendBuffer) Seed(high uint64) {
	if high > b.seq {
		b.seq = high
	}
}

// GetItem returns the retained item for seq, if still buffered.
func (b *SendBuffer) GetItem(seq uint64) (Item, bool) { return b.cache.GetItem(seq) }

// Cached counts the payloads currently retained.
func (b *SendBuffer) Cached() int { return b.cache.Len() }

// Delivery is one payload a SourceWindow releases to the application. It
// carries the trace identity the payload travelled under so the deliver
// trace event can join the publisher's trace and measure true end-to-end
// latency, even for payloads that waited in the ordered buffer or arrived
// via retransmission.
type Delivery struct {
	Seq     uint64
	Data    []byte
	TraceID uint64
	// OriginAt is the publisher's timestamp (zero when unstamped).
	OriginAt time.Time
}

// ObserveResult accumulates what one window operation did, so the caller
// can update its counters and hand released payloads to the application in
// order.
type ObserveResult struct {
	// Fresh is true when the observed payload had not been seen before.
	Fresh bool
	// OutOfWindow counts arrivals below the window (very late duplicates or
	// retransmissions of abandoned sequences) that were dropped.
	OutOfWindow int
	// GapsOpened / GapsRecovered / GapsAbandoned count gap lifecycle
	// transitions caused by this operation.
	GapsOpened    int
	GapsRecovered int
	GapsAbandoned int
	// RecoveredAfter holds, for each gap this operation closed after at
	// least one NACK went out, the time from gap detection to recovery —
	// the receiver-side NACK round-trip the metrics layer feeds its
	// nack_rtt histogram with.
	RecoveredAfter []time.Duration
	// Deliver lists the payloads released to the application, in the order
	// they must be handed over.
	Deliver []Delivery
}

// gap is one missing sequence the receiver is trying to recover.
type gap struct {
	since    time.Time // when the gap was first detected
	attempts int       // NACKs sent so far
	nextDue  time.Time // earliest time the next NACK may fire
}

// SourceWindow tracks one remote publisher's stream at a receiver: a
// sliding window of the last `span` sequence numbers that deduplicates
// arrivals, detects gaps, schedules their recovery, caches relayed payloads
// so this node can answer downstream NACKs, and — in ordered mode — holds
// out-of-order arrivals back until they can be released in publish order.
//
// The received set is a bit ring, one bit per sequence, so a lossless
// stream touches no map: an arrival at the ordered cursor is released
// directly, and the pending buffer holds only out-of-order arrivals. State
// is bounded by construction: the ring holds span live bits, the pending
// buffer and the gaps never exceed span entries, and the cache never
// exceeds its capacity. A sequence jump of any size costs O(span). The
// window is not self-locking; the owning node serializes access.
type SourceWindow struct {
	span     int
	ordered  bool
	reliable bool

	// Info is the source's last-known identity (zero but for the address
	// until a payload carries the full quadruplet).
	Info wire.PeerInfo
	// LastHop is the tree link the stream last arrived on — the first NACK
	// target. Falls back to the digest sender that advertised the stream.
	LastHop string
	// LastActive is the last time this window saw any traffic (payload,
	// digest, or NACK activity); idle windows are evicted by the node.
	LastActive time.Time

	high    uint64   // highest sequence observed or advertised
	pruned  uint64   // all state at or below this sequence has been dropped
	next    uint64   // ordered mode: lowest sequence not yet released
	ring    []uint64 // received set: bit s&mask for each received s in (pruned, high]
	mask    uint64
	held    int                 // bits set in ring
	pending map[uint64]Delivery // ordered mode only: out-of-order arrivals
	gaps    map[uint64]*gap     // reliable modes only
	cache   *PayloadCache       // reliable modes only
}

// NewSourceWindow builds a window of the given span. In reliable mode gaps
// are tracked for NACK recovery and payloads cached for retransmission; in
// ordered mode arrivals are additionally released in sequence order.
func NewSourceWindow(span, cacheCap int, ordered, reliableMode bool) *SourceWindow {
	if span < 2 {
		span = 2
	}
	bits := 64 // the ring is a power of two of at least span bits
	for bits < span {
		bits <<= 1
	}
	w := &SourceWindow{
		span:     span,
		ordered:  ordered,
		reliable: reliableMode,
		next:     1,
		ring:     make([]uint64, bits/64),
		mask:     uint64(bits - 1),
	}
	if reliableMode {
		w.gaps = make(map[uint64]*gap)
		w.cache = NewPayloadCache(cacheCap)
	}
	if ordered {
		w.pending = make(map[uint64]Delivery)
	}
	return w
}

// bit locates seq's received bit: the ring word and the bit within it. The
// bit is seq's own only for seq in (pruned, high]; a sequence above high
// shares it with a live one.
func (w *SourceWindow) bit(seq uint64) (*uint64, uint64) {
	i := seq & w.mask
	return &w.ring[i>>6], 1 << (i & 63)
}

// received reports whether seq, in (pruned, high], has arrived.
func (w *SourceWindow) received(seq uint64) bool {
	word, b := w.bit(seq)
	return *word&b != 0
}

// Seed primes a freshly built window with a persisted high-water mark: every
// sequence at or below high counts as already received and released, and the
// next in-order release is high+1. Unlike NoteAdvertised — which would open
// the whole [1, high] range as gaps and trigger a full resync — Seed records
// the pre-restart history as delivered, so a restarted subscriber resumes the
// FIFO stream exactly where it left off and recovers only traffic published
// after the crash (the digest anti-entropy surfaces that). No-op on a window
// that has already observed traffic.
func (w *SourceWindow) Seed(high uint64) {
	if high == 0 || w.high > 0 {
		return
	}
	w.high = high
	w.pruned = high
	w.next = high + 1
}

// Configured reports whether the window was built with the given mode flags
// (the node rebuilds a window whose group's delivery mode was learned after
// the window was created).
func (w *SourceWindow) Configured(ordered, reliableMode bool) bool {
	return w.ordered == ordered && w.reliable == reliableMode
}

// ObserveItem processes one arrival. It reports whether the payload is
// fresh, updates gap state, and appends any releasable payloads to
// res.Deliver (the arrival itself in unordered modes; in ordered mode,
// every consecutive pending payload the arrival unlocked). The item's trace
// ID and origin timestamp flow into the retransmission cache and the
// resulting deliveries, so downstream NACK answers and deliver events keep
// the original trace.
func (w *SourceWindow) ObserveItem(seq uint64, item Item, now time.Time, res *ObserveResult) {
	w.LastActive = now
	if seq == 0 {
		// Unsequenced payload (foreign or legacy publisher): deliver as-is,
		// dedup is the caller's problem.
		res.Fresh = true
		res.Deliver = append(res.Deliver, Delivery{0, item.Data, item.TraceID, item.OriginAt})
		return
	}
	if seq <= w.pruned || seq <= seqFloor(w.high, w.span) || (w.ordered && seq < w.next) || seq == math.MaxUint64 {
		// Below the window or already released past: a very late duplicate
		// or the retransmission of an abandoned sequence. The top sequence
		// is refused too, so no cursor ever wraps.
		res.OutOfWindow++
		return
	}
	if seq <= w.high && w.received(seq) {
		return // duplicate within the window
	}
	res.Fresh = true
	w.advance(seq, false, now, res)
	word, b := w.bit(seq)
	*word |= b
	w.held++
	if len(w.gaps) > 0 {
		if g, open := w.gaps[seq]; open {
			delete(w.gaps, seq)
			res.GapsRecovered++
			if g.attempts > 0 {
				res.RecoveredAfter = append(res.RecoveredAfter, now.Sub(g.since))
			}
		}
	}
	if w.cache != nil {
		w.cache.PutItem(seq, item)
	}
	d := Delivery{seq, item.Data, item.TraceID, item.OriginAt}
	if !w.ordered {
		res.Deliver = append(res.Deliver, d)
		return
	}
	if seq == w.next {
		res.Deliver = append(res.Deliver, d) // at the cursor: never held
		w.next++
	} else {
		w.pending[seq] = d
	}
	w.release(res) // the arrival or the slide may have unlocked pending payloads
}

// NoteAdvertised ingests a digest's high-water mark: sequences up to high
// are known to exist, so any this window has not received become gaps for
// the recovery sweep (anti-entropy for trailing losses, which no later
// payload would ever reveal).
func (w *SourceWindow) NoteAdvertised(high uint64, now time.Time, res *ObserveResult) {
	w.LastActive = now
	if high <= w.high || high == math.MaxUint64 {
		return
	}
	w.advance(high, true, now, res)
}

// advance moves the top of the window to seq, opening gaps for skipped
// sequences that fit the window (inclusive also marks seq itself missing —
// the digest path) and sliding the bottom forward. Nothing above the old
// top was received or is a gap yet, so every skipped sequence opens one.
func (w *SourceWindow) advance(seq uint64, inclusive bool, now time.Time, res *ObserveResult) {
	if seq <= w.high {
		return
	}
	if w.gaps != nil {
		start := max(w.high, seqFloor(seq, w.span)) + 1
		end := seq - 1
		if inclusive {
			end = seq
		}
		for s := start; s <= end; s++ {
			w.gaps[s] = &gap{since: now}
			res.GapsOpened++
		}
	}
	w.high = seq
	w.slide(res)
}

// seqFloor is the window bottom implied by a top of seq.
func seqFloor(seq uint64, span int) uint64 {
	if seq > uint64(span) {
		return seq - uint64(span)
	}
	return 0
}

// slide drops state below the window bottom. Gaps that fall off are
// abandoned; in ordered mode, pending payloads below the bottom are force-
// released in sequence order (delivery with holes beats deadlock), and the
// release cursor jumps past the abandoned range. Only (pruned, pruned+span]
// is walked: nothing above it ever held state, so a jump costs O(span).
func (w *SourceWindow) slide(res *ObserveResult) {
	newLow := seqFloor(w.high, w.span)
	for s := w.pruned + 1; s <= min(newLow, w.pruned+uint64(w.span)); s++ {
		if len(w.gaps) > 0 {
			if _, open := w.gaps[s]; open {
				delete(w.gaps, s)
				res.GapsAbandoned++
			}
		}
		if len(w.pending) > 0 {
			if d, ok := w.pending[s]; ok {
				res.Deliver = append(res.Deliver, d)
				delete(w.pending, s)
			}
		}
		if word, b := w.bit(s); *word&b != 0 {
			*word &^= b
			w.held--
		}
	}
	w.pruned = newLow
	if w.ordered && w.next <= newLow {
		w.next = newLow + 1
	}
}

// release appends every releasable pending payload to res.Deliver: the
// consecutive run from the cursor, skipping sequences whose recovery was
// abandoned (their gap entry is gone and they were never received).
func (w *SourceWindow) release(res *ObserveResult) {
	if !w.ordered {
		return
	}
	for w.next <= w.high {
		if d, ok := w.pending[w.next]; ok {
			res.Deliver = append(res.Deliver, d)
			delete(w.pending, w.next)
			w.next++
			continue
		}
		if w.received(w.next) {
			w.next++ // released earlier; cursor catching up
			continue
		}
		if _, open := w.gaps[w.next]; open {
			return // recovery still in flight: hold ordering
		}
		w.next++ // abandoned sequence: skip the hole
	}
}

// DueGaps returns the missing sequences whose next NACK is due, advancing
// their attempt counters and backoff. A gap's first NACK waits pol.BaseDelay
// after detection: a gap revealed by a digest (control traffic that
// overtakes queued data) or by a reordered arrival is usually data still in
// flight. Gaps past pol.MaxAttempts are abandoned instead (in ordered mode
// this may unlock pending deliveries, appended to res.Deliver). The result
// is ascending and capped at pol.MaxBatch.
func (w *SourceWindow) DueGaps(now time.Time, pol NackPolicy, res *ObserveResult) []uint64 {
	if len(w.gaps) == 0 {
		return nil
	}
	var due []uint64
	abandoned := false
	for s, g := range w.gaps {
		if pol.MaxAttempts > 0 && g.attempts >= pol.MaxAttempts {
			delete(w.gaps, s)
			res.GapsAbandoned++
			abandoned = true
			continue
		}
		if now.Before(g.nextDue) || now.Sub(g.since) < pol.BaseDelay {
			continue
		}
		due = append(due, s)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	if pol.MaxBatch > 0 && len(due) > pol.MaxBatch {
		due = due[:pol.MaxBatch]
	}
	for _, s := range due {
		g := w.gaps[s]
		g.attempts++
		g.nextDue = now.Add(pol.backoff(g.attempts))
	}
	if abandoned {
		w.release(res)
	}
	return due
}

// GetItem returns the cached item for seq — payload plus the trace identity
// a retransmission should re-carry.
func (w *SourceWindow) GetItem(seq uint64) (Item, bool) {
	if w.cache == nil {
		return Item{}, false
	}
	return w.cache.GetItem(seq)
}

// OldestGapAge returns how long the longest-outstanding gap has been open
// (0 when no gaps are pending) — the registry's gap-age gauge.
func (w *SourceWindow) OldestGapAge(now time.Time) time.Duration {
	var oldest time.Duration
	for _, g := range w.gaps {
		if age := now.Sub(g.since); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// High returns the highest sequence observed or advertised.
func (w *SourceWindow) High() uint64 { return w.high }

// Tracked counts the sequences the window holds as received.
func (w *SourceWindow) Tracked() int { return w.held }

// Cached counts the payloads held for retransmission.
func (w *SourceWindow) Cached() int {
	if w.cache == nil {
		return 0
	}
	return w.cache.Len()
}

// PendingGaps counts the sequences currently under recovery.
func (w *SourceWindow) PendingGaps() int { return len(w.gaps) }

// PendingOrdered counts payloads buffered awaiting in-order release.
func (w *SourceWindow) PendingOrdered() int { return len(w.pending) }
