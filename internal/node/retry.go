package node

import (
	"sync/atomic"
	"time"

	"groupcast/internal/wire"
)

const (
	// retryAttempts bounds the attempts of the retried operations before
	// giving up: a bootstrap probe, a join message to one parent (joinVia),
	// a Join's passes and a repair's search-based joins.
	retryAttempts = 3
	// retryBaseDelay is the backoff before the second attempt; it doubles
	// per attempt with jitter, capped at retryMaxDelay.
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = time.Second
)

// perAttempt splits a budget evenly across retryAttempts attempts, with a
// 10 ms floor so an attempt always leaves a reply time to arrive.
func perAttempt(budget time.Duration) time.Duration {
	return max(budget/retryAttempts, 10*time.Millisecond)
}

// backoffDelay returns the pause before retry attempt (1-based: attempt 1
// is the first retry): exponential growth from retryBaseDelay capped at
// retryMaxDelay, with full jitter (a uniform draw over the upper half of
// the window) so synchronized peers don't retry in lockstep.
func (n *Node) backoffDelay(attempt int) time.Duration {
	d := retryBaseDelay
	for i := 1; i < attempt && d < retryMaxDelay; i++ {
		d *= 2
	}
	if d > retryMaxDelay {
		d = retryMaxDelay
	}
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	jitter := n.rng.Int63n(half + 1)
	return time.Duration(half + jitter)
}

// retry runs attempt up to retryAttempts times. An attempt that fails
// calls its fail argument, which counts a retry and starts the next attempt
// — after a backoff when backoff is set — or, once the last attempt failed,
// runs giveUp.
func (n *Node) retry(backoff bool, attempt func(i int, fail func()), giveUp func()) {
	var try func(i int)
	try = func(i int) {
		attempt(i, func() {
			if i+1 == retryAttempts {
				giveUp()
				return
			}
			atomic.AddUint64(&n.stats.Retries, 1)
			if backoff {
				n.after(n.backoffDelay(i+1), func() { try(i + 1) })
			} else {
				try(i + 1)
			}
		})
	}
	try(0)
}

// probe asks addr for its neighbour list, waiting up to attemptWait per
// attempt and retrying a lost probe with backoff. done gets the list, or
// nil once every attempt failed.
func (n *Node) probe(addr string, attemptWait time.Duration, done func(nbrs []wire.PeerInfo)) {
	n.retry(true, func(_ int, fail func()) {
		n.ask([]string{addr}, wire.Message{Type: wire.TProbe, From: n.self}, attemptWait,
			func(resp wire.Message) bool {
				done(resp.Neighbors)
				return true
			}, fail)
	}, func() { done(nil) })
}
