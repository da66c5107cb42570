package reliable

import "time"

// PayloadCache is a bounded, sequence-indexed retransmission buffer: a ring
// of capacity slots where sequence s lives in slot s mod capacity. Inserting
// a newer sequence evicts whatever older one occupied its slot, so the cache
// always holds (at most) the most recent `capacity` sequences — a sliding
// buffer with O(1) insert and lookup and no allocation churn.
//
// Payload slices are stored as given, not copied; callers must not mutate
// them afterwards (the wire layer treats payloads as immutable too).
type PayloadCache struct {
	slots []cacheSlot
	held  int // full slots
}

// Item is one cached payload with the trace identity it travelled under, so
// a retransmission can re-carry the original trace ID and origin timestamp
// (NACK-recovered deliveries then still measure true publish→deliver
// latency and join the original trace).
type Item struct {
	Data    []byte
	TraceID uint64
	// OriginAt is the publisher's timestamp (zero when the publisher did not
	// stamp one).
	OriginAt time.Time
}

type cacheSlot struct {
	seq  uint64
	item Item
	full bool
}

// NewPayloadCache returns a cache holding at most capacity payloads
// (capacity < 1 is treated as 1).
func NewPayloadCache(capacity int) *PayloadCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PayloadCache{slots: make([]cacheSlot, capacity)}
}

// PutItem retains an item under seq. An older sequence never evicts a newer
// one from its slot (late retransmit arrivals must not regress the buffer).
func (c *PayloadCache) PutItem(seq uint64, item Item) {
	s := &c.slots[int(seq%uint64(len(c.slots)))]
	if s.full && s.seq >= seq {
		return
	}
	if !s.full {
		c.held++
	}
	*s = cacheSlot{seq: seq, item: item, full: true}
}

// GetItem returns the item retained for seq, if it is still in the buffer.
func (c *PayloadCache) GetItem(seq uint64) (Item, bool) {
	s := c.slots[int(seq%uint64(len(c.slots)))]
	if !s.full || s.seq != seq {
		return Item{}, false
	}
	return s.item, true
}

// Len counts the payloads currently held.
func (c *PayloadCache) Len() int { return c.held }
