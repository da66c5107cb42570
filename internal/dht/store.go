package dht

import (
	"sort"
	"time"

	"groupcast/internal/wire"
)

// Record is one replicated group→charter entry: where the group's rendezvous
// lives and the charter a joiner (or a healing partition) needs to reach the
// current root.
type Record struct {
	GroupID    string
	Rendezvous wire.PeerInfo
	Mode       wire.DeliveryMode
	// Epoch is the publishing root's succession epoch; the store's epoch
	// guard keys off it so a stale root can never clobber its successor's
	// record.
	Epoch    uint64
	Charter  wire.Charter
	StoredAt time.Time
}

// Store holds the records this node is (one of) the k closest to, expiring
// them after a TTL so orphaned records die without a tombstone protocol —
// live owners republish well inside the TTL. Like Table, it belongs to one
// goroutine.
type Store struct {
	ttl time.Duration
	m   map[ID]Record
}

// NewStore returns an empty record store. ttl ≤ 0 disables expiry.
func NewStore(ttl time.Duration) *Store {
	return &Store{ttl: ttl, m: make(map[ID]Record)}
}

// Put stores or refreshes a record under the epoch guard, mirroring the root
// conflict resolution of protocol.CompareRoots: a higher epoch always wins;
// on an equal epoch the same rendezvous refreshes its own record and a
// different rendezvous wins only with the lexicographically lower address.
// Older epochs are rejected outright — that is what stops a root that slept
// through its own succession from resurrecting itself in the DHT. The guard
// applies even when the held record has expired but not yet been swept: a
// dead root's lineage ordering outlives its TTL, so a stale gossip echo that
// lands between expiry and the sweep cannot resurrect a lower-epoch record
// (Get refuses the expired entry either way, and Sweep/Delete still clear
// it). Returns whether r was retained.
func (s *Store) Put(key ID, r Record, now time.Time) bool {
	r.StoredAt = now
	if old, ok := s.m[key]; ok {
		switch {
		case r.Epoch > old.Epoch:
		case r.Epoch < old.Epoch:
			return false
		case r.Rendezvous.Addr == old.Rendezvous.Addr:
			// Same root refreshing its own record.
		case r.Rendezvous.Addr > old.Rendezvous.Addr:
			return false
		}
	}
	s.m[key] = r
	return true
}

// Get returns the live record under key, if any.
func (s *Store) Get(key ID, now time.Time) (Record, bool) {
	r, ok := s.m[key]
	if !ok || s.expired(r, now) {
		return Record{}, false
	}
	return r, true
}

// Delete drops the record under key, epoch and TTL notwithstanding. Resolvers
// use it to purge a cached record whose rendezvous turned out to be dead, so
// the next resolve goes back to the network instead of replaying the corpse
// until the TTL clears it.
func (s *Store) Delete(key ID) {
	delete(s.m, key)
}

// Sweep drops expired records and returns how many died.
func (s *Store) Sweep(now time.Time) int {
	n := 0
	for k, r := range s.m {
		if s.expired(r, now) {
			delete(s.m, k)
			n++
		}
	}
	return n
}

// Len is the number of held records (including any not yet swept).
func (s *Store) Len() int {
	return len(s.m)
}

// Snapshot returns the held records sorted by group ID, so a walk over them
// (a node's rescue takes a MsgID per record) has one order.
func (s *Store) Snapshot() []Record {
	out := make([]Record, 0, len(s.m))
	for _, r := range s.m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GroupID < out[j].GroupID })
	return out
}

// TTL returns the store's record lifetime (0 = no expiry).
func (s *Store) TTL() time.Duration { return s.ttl }

func (s *Store) expired(r Record, now time.Time) bool {
	return s.ttl > 0 && now.Sub(r.StoredAt) > s.ttl
}
