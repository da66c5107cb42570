// Package reliable implements the loss-recovery primitives of the GroupCast
// data plane: per-source sequencing, sliding receive windows with gap
// detection, bounded retransmission caches, and a TTL-evicted dedup set.
//
// The live runtime (internal/node) upgrades group dissemination from
// best-effort tree flooding to sequenced, NACK-recovered, optionally
// FIFO-ordered delivery with these pieces:
//
//   - a publisher stamps every payload with a per-(group, source) sequence
//     number from a SendBuffer and retains recent payloads to answer NACKs;
//   - every receiver tracks one SourceWindow per (group, source): a sliding
//     window that deduplicates against a bit ring of the last span
//     sequences, detects sequence gaps, schedules NACKs with per-gap
//     backoff, caches relayed payloads for downstream recovery, and (in
//     ordered mode) releases an arrival at the cursor at once and buffers
//     only out-of-order arrivals until they can be handed to the
//     application in publish order. A lossless in-order stream touches no
//     map, and a sequence jump of any size costs O(span);
//   - a low-rate digest heartbeat advertises per-source high-water marks
//     along tree links so trailing losses and rejoining orphans converge
//     (anti-entropy);
//   - a Dedup set bounds the advertisement/search duplicate filters that
//     previously grew without bound.
//
// Everything in this package is state-machine code: no goroutines, no
// locks, no clocks of its own. Callers (the node) own synchronization and
// pass time.Now() in.
package reliable

import "time"

// Defaults used by the node layer when a Config field is zero.
const (
	// DefaultWindowSpan is the receive-window width in sequence numbers:
	// how far a source's stream may run ahead of a loss before the window
	// slides past it and the gap is abandoned.
	DefaultWindowSpan = 1024
	// DefaultCachePayloads is the per-source retransmission buffer depth
	// (both the publisher's send buffer and each relay's cache).
	DefaultCachePayloads = 256
	// DefaultNackMaxAttempts bounds recovery attempts per missing sequence
	// before the gap is abandoned.
	DefaultNackMaxAttempts = 10
	// DefaultNackBatch caps the sequences requested in one NACK message.
	DefaultNackBatch = 64
	// DefaultNackTTL bounds the hop-by-hop escalation of a NACK toward the
	// source.
	DefaultNackTTL = 8
	// DefaultSeenMax and DefaultSeenTTL bound the advertisement/search
	// dedup filter.
	DefaultSeenMax = 8192
)

// DefaultSeenTTL is how long an advertisement/search message ID is
// remembered by the Dedup filter.
const DefaultSeenTTL = 2 * time.Minute

// NackPolicy tunes gap recovery: when NACKs fire, how they back off, and
// when a gap is given up on.
type NackPolicy struct {
	// BaseDelay is the backoff before the second NACK for a gap; it doubles
	// per attempt up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the per-gap backoff.
	MaxDelay time.Duration
	// MaxAttempts abandons a gap after this many unanswered NACKs.
	MaxAttempts int
	// MaxBatch caps how many sequences one sweep may request per source.
	MaxBatch int
}

// backoff returns the delay before the next NACK after `attempts` tries.
func (p NackPolicy) backoff(attempts int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempts && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay && p.MaxDelay > 0 {
		d = p.MaxDelay
	}
	return d
}
