package transport

import (
	"sync"
	"time"
)

// Slow-peer circuit breaker defaults. The threshold is consecutive
// failures (write errors, dial failures, full control queues) before the
// breaker opens; backoff doubles on every failed half-open probe up to the
// cap, so a dead peer costs one cheap probe per backoff instead of a
// deadline-bounded write per message.
const (
	DefaultBreakerThreshold  = 3
	DefaultBreakerBackoff    = 250 * time.Millisecond
	DefaultBreakerMaxBackoff = 8 * time.Second
)

// breaker guards one destination. Closed passes sends through; threshold
// consecutive failures open it; while open, sends fail fast until the
// backoff elapses, then exactly one send is admitted as a half-open probe
// whose outcome recloses (success) or reopens with doubled backoff
// (failure). A threshold < 0 disables the breaker entirely.
//
// With the asynchronous send queues, a "failure" is reported from wherever
// the loss surfaces: a full control queue at Send, or the link's writer
// goroutine failing to dial or to finish a deadline-bounded write (the
// dead- and slow-peer signals).
// A full data queue is not a failure: a busy peer is not a dead one.
// The half-open probe's outcome likewise arrives asynchronously from the
// writer; until it does, every other send to the destination fails fast.
type breaker struct {
	threshold  int
	minBackoff time.Duration
	maxBackoff time.Duration

	mu       sync.Mutex
	state    BreakerState
	failures int // consecutive failures while closed
	trips    uint64
	backoff  time.Duration
	openedAt time.Time
	probing  bool // half-open probe in flight
}

func newBreaker(threshold int, minBackoff, maxBackoff time.Duration) *breaker {
	if threshold == 0 {
		threshold = DefaultBreakerThreshold
	}
	if minBackoff <= 0 {
		minBackoff = DefaultBreakerBackoff
	}
	if maxBackoff <= 0 {
		maxBackoff = DefaultBreakerMaxBackoff
	}
	return &breaker{threshold: threshold, minBackoff: minBackoff, maxBackoff: maxBackoff}
}

// allow reports whether a send may proceed now. An open breaker past its
// backoff admits the caller as the half-open probe.
func (b *breaker) allow() bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.backoff {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // BreakerHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// onSuccess records a completed write: failures reset and an open or
// half-open breaker recloses.
func (b *breaker) onSuccess() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.failures = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.state = BreakerClosed
		b.backoff = 0
	}
	b.mu.Unlock()
}

// onFailure records a failed send. Threshold consecutive failures trip a
// closed breaker; any failure reopens a half-open one with doubled backoff.
func (b *breaker) onFailure() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.tripLocked()
		}
	case BreakerHalfOpen:
		b.tripLocked()
	case BreakerOpen:
		// Stragglers from the queue draining after the trip; nothing new.
	}
	b.mu.Unlock()
}

func (b *breaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = time.Now()
	b.trips++
	b.probing = false
	b.failures = 0
	if b.backoff == 0 {
		b.backoff = b.minBackoff
	} else if b.backoff < b.maxBackoff {
		b.backoff *= 2
		if b.backoff > b.maxBackoff {
			b.backoff = b.maxBackoff
		}
	}
}

// snapshot renders the breaker for introspection.
func (b *breaker) snapshot(addr string) BreakerInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerInfo{
		Addr:      addr,
		State:     b.state.String(),
		Failures:  b.failures,
		Trips:     b.trips,
		BackoffMs: b.backoff.Milliseconds(),
	}
}
