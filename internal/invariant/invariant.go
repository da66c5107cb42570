// Package invariant is the churn plane's correctness oracle: a checker that
// accumulates observations from a run — live cluster, chaos soak, or offline
// simulation — and reports every violated invariant as a human-readable
// finding. The checked properties are the ones continuous churn is most apt
// to break:
//
//   - root uniqueness: one root per (group, epoch) — a split brain that
//     settles on two roots under the same epoch is a succession bug;
//   - FIFO: per (observer, group, source) delivered sequence numbers are
//     strictly increasing — a regression or duplicate across a crash means a
//     restarted window or send buffer lost its high-water mark;
//   - bounded state: dedup caches, receive windows, goroutine counts and
//     similar resources stay under their declared bounds — monotone growth
//     under churn is a leak.
//
// The checker is deterministic: violations are reported sorted, capped at
// MaxViolations with an overflow count, so experiment tables and CI gates
// can diff its output byte-for-byte.
package invariant

import (
	"fmt"
	"sort"
	"sync"
)

// MaxViolations bounds the findings kept verbatim; further violations are
// only counted. Runs gone badly wrong stay reportable without drowning the
// report (or memory) in repeats.
const MaxViolations = 64

// Checker accumulates observations and judges them. All methods are safe
// for concurrent use — live nodes report from their own goroutines.
type Checker struct {
	mu sync.Mutex
	// roots maps group → epoch → root address first observed.
	roots map[string]map[uint64]string
	// delivered maps observer/group/source → last delivered sequence.
	delivered  map[obsKey]uint64
	violations []string
	dropped    int
}

type obsKey struct{ observer, group, source string }

// New returns an empty checker.
func New() *Checker {
	return &Checker{
		roots:     make(map[string]map[uint64]string),
		delivered: make(map[obsKey]uint64),
	}
}

func (c *Checker) violatef(format string, args ...any) {
	if len(c.violations) >= MaxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// ObserveRoot records that observer saw root holding the group at epoch.
// Two different roots under the same (group, epoch) is a split brain.
func (c *Checker) ObserveRoot(group string, epoch uint64, root string) {
	if root == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	byEpoch := c.roots[group]
	if byEpoch == nil {
		byEpoch = make(map[uint64]string)
		c.roots[group] = byEpoch
	}
	if prev, ok := byEpoch[epoch]; ok {
		if prev != root {
			c.violatef("root-uniqueness: group %q epoch %d claimed by both %q and %q",
				group, epoch, prev, root)
		}
		return
	}
	byEpoch[epoch] = root
}

// ObserveDelivery records one payload delivery at observer. Sequences per
// (observer, group, source) must be strictly increasing: a repeat is a
// duplicate delivery, a lower value is a FIFO regression (a restarted
// counter or resynced window replaying history).
func (c *Checker) ObserveDelivery(observer, group, source string, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := obsKey{observer, group, source}
	if last, ok := c.delivered[k]; ok && seq <= last {
		kind := "fifo-regression"
		if seq == last {
			kind = "duplicate-delivery"
		}
		c.violatef("%s: %s got %s/%s seq %d after %d", kind, observer, group, source, seq, last)
		return
	}
	c.delivered[k] = seq
}

// ObserveBound checks a resource sample against its declared bound (dedup
// entries, window count, goroutines, state-file size — anything that must
// not grow monotonically under churn). what names the resource in the
// finding.
func (c *Checker) ObserveBound(observer, what string, value, bound int) {
	if value <= bound {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violatef("bounded-state: %s %s = %d exceeds bound %d", observer, what, value, bound)
}

// Violations returns every finding, sorted, with a final overflow line when
// more than MaxViolations occurred. Empty means the run held all invariants.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.violations...)
	sort.Strings(out)
	if c.dropped > 0 {
		out = append(out, fmt.Sprintf("(and %d more violations beyond the %d kept)",
			c.dropped, MaxViolations))
	}
	return out
}

// Count returns the total number of violations observed, including ones
// beyond the MaxViolations kept verbatim.
func (c *Checker) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) + c.dropped
}
