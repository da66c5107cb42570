package node

import (
	"sync/atomic"
	"time"

	"groupcast/internal/wire"
)

const (
	// retryAttempts bounds the attempts of the retried operations —
	// bootstrap probes, tree joins, and the ripple search — before giving up.
	retryAttempts = 3
	// retryBaseDelay is the backoff before the second attempt; it doubles
	// per attempt with jitter, capped at retryMaxDelay.
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = time.Second
)

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
	n.mu.Lock()
	jitter := n.rng.Int63n(half + 1)
	n.mu.Unlock()
	return time.Duration(half + jitter)
}

// sleepBackoff pauses for the attempt's backoff, returning false when the
// node stopped while sleeping.
func (n *Node) sleepBackoff(attempt int) bool {
	select {
	case <-time.After(n.backoffDelay(attempt)):
		return true
	case <-n.stop:
		return false
	}
}

// probeWithRetry sends a TProbe to addr and waits up to attemptWait for
// the response, retrying with backoff up to retryAttempts times. It
// returns the probed neighbour list, or ok=false when every attempt
// failed or the node stopped.
func (n *Node) probeWithRetry(addr string, attemptWait time.Duration) ([]wire.PeerInfo, bool) {
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			atomic.AddUint64(&n.stats.Retries, 1)
			if !n.sleepBackoff(attempt) {
				return nil, false
			}
		}
		reqID, ch := n.nextReq()
		if err := n.send(addr, wire.Message{Type: wire.TProbe, From: n.selfInfo(), ReqID: reqID}); err != nil {
			n.dropReq(reqID)
			continue
		}
		select {
		case resp := <-ch:
			n.dropReq(reqID)
			return resp.Neighbors, true
		case <-time.After(attemptWait):
			n.dropReq(reqID)
		case <-n.stop:
			n.dropReq(reqID)
			return nil, false
		}
	}
	return nil, false
}
