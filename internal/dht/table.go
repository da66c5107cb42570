package dht

import (
	"sort"

	"groupcast/internal/wire"
)

// Contact pairs a DHT identifier with the peer's transport identity.
type Contact struct {
	ID   ID
	Info wire.PeerInfo
}

// Table is the XOR-metric routing table: one bucket per distance prefix,
// each holding up to k contacts ordered least-recently-seen first. Kademlia's
// insight is that old contacts are the most likely to stay alive, so a full
// bucket never evicts blindly — Observe hands the caller the stalest contact
// to liveness-check first (ping-before-evict). It is not safe for
// concurrent use: a live node's loop owns its table.
type Table struct {
	self    ID
	k       int
	buckets [IDBits][]Contact
	size    int
}

// NewTable returns an empty table for the given local identity. k ≤ 0 uses
// DefaultK.
func NewTable(self ID, k int) *Table {
	if k <= 0 {
		k = DefaultK
	}
	return &Table{self: self, k: k}
}

// Self returns the table's local identity.
func (t *Table) Self() ID { return t.self }

// Observe notes a live contact. A known contact refreshes to most recently
// seen; a new contact fills its bucket if there is room. When the bucket is
// full the new contact is NOT inserted — instead the bucket's stalest entry
// comes back with full=true, and the caller decides: ping it, then Evict on
// silence (the new contact will be re-observed on its next message) or leave
// it be on an answer.
func (t *Table) Observe(c Contact) (candidate Contact, full bool) {
	idx := BucketIndex(t.self, c.ID)
	if idx < 0 || c.Info.Addr == "" {
		return Contact{}, false
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].Info.Addr == c.Info.Addr {
			// Known: refresh metadata and move to the most-recent end.
			copy(b[i:], b[i+1:])
			b[len(b)-1] = c
			return Contact{}, false
		}
	}
	if len(b) < t.k {
		t.buckets[idx] = append(b, c)
		t.size++
		return Contact{}, false
	}
	return b[0], true
}

// Evict removes a contact that failed its liveness check and inserts the
// replacement in its bucket (if the replacement still fits and is not
// already present).
func (t *Table) Evict(old, repl Contact) {
	t.remove(old.ID, old.Info.Addr)
	idx := BucketIndex(t.self, repl.ID)
	if idx < 0 || repl.Info.Addr == "" {
		return
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].Info.Addr == repl.Info.Addr {
			return
		}
	}
	if len(b) < t.k {
		t.buckets[idx] = append(b, repl)
		t.size++
	}
}

// Remove drops a contact known to be dead (failed neighbour, closed link).
func (t *Table) Remove(id ID, addr string) {
	t.remove(id, addr)
}

func (t *Table) remove(id ID, addr string) {
	idx := BucketIndex(t.self, id)
	if idx < 0 {
		return
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].Info.Addr == addr {
			t.buckets[idx] = append(b[:i], b[i+1:]...)
			t.size--
			return
		}
	}
}

// Closest returns up to n contacts XOR-nearest to target, nearest first.
// Ties cannot occur: distinct IDs sit at distinct distances from any target.
// It walks buckets outward from the target's and stops at n. With j the
// target's bucket, a contact of bucket j shares the target's prefix past bit
// j, so it is nearest; every contact of a bucket above j is at a distance
// whose top bit is j; and each bucket below j is farther than the one above
// it. Only each group is sorted.
func (t *Table) Closest(target ID, n int) []Contact {
	out := make([]Contact, 0, n)
	take := func(from, to int) {
		start := len(out)
		for i := from; i < to; i++ {
			out = append(out, t.buckets[i]...)
		}
		b := out[start:]
		sort.Slice(b, func(x, y int) bool { return Closer(target, b[x].ID, b[y].ID) })
	}
	j := BucketIndex(t.self, target)
	if j >= 0 {
		take(j, j+1)
		if len(out) < n {
			take(j+1, IDBits)
		}
	} else {
		j = IDBits // the target is self: bucket i is at top bit i
	}
	for i := j - 1; i >= 0 && len(out) < n; i-- {
		take(i, i+1)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Contacts returns every tabled contact, nearest bucket last, sorted by
// address within each bucket — a deterministic snapshot for the recovery
// state file (a restarting node seeds its bootstrap from it).
func (t *Table) Contacts() []Contact {
	all := make([]Contact, 0, t.size)
	for i := range t.buckets {
		start := len(all)
		all = append(all, t.buckets[i]...)
		b := all[start:]
		sort.Slice(b, func(x, y int) bool { return b[x].Info.Addr < b[y].Info.Addr })
	}
	return all
}

// Len is the number of tabled contacts.
func (t *Table) Len() int {
	return t.size
}

// MaxBucketDepth is the occupancy of the fullest bucket (≤ k).
func (t *Table) MaxBucketDepth() int {
	max := 0
	for i := range t.buckets {
		if len(t.buckets[i]) > max {
			max = len(t.buckets[i])
		}
	}
	return max
}

// BucketSizes reports the occupancy of every non-empty bucket, nearest-half
// buckets last (index order). The map key is the bucket index.
func (t *Table) BucketSizes() map[int]int {
	out := make(map[int]int)
	for i := range t.buckets {
		if n := len(t.buckets[i]); n > 0 {
			out[i] = n
		}
	}
	return out
}
