// Package dht is the structured discovery plane: a Kademlia-style XOR-metric
// identifier space, a k-bucket routing table with least-recently-seen
// eviction, a TTL'd group→charter record store with an epoch guard, and a
// deterministic iterative lookup engine. The package is transport-agnostic —
// it depends only on the wire vocabulary; internal/node supplies the RPC
// plumbing (TDhtFindNode / TDhtFindValue / TDhtStore) and the offline
// experiments supply synthetic query functions. With it, group discovery
// costs O(log N) lookup messages instead of the ripple search's O(N) flood.
package dht

import (
	"crypto/sha1"
	"encoding/hex"
	"math/bits"
)

const (
	// IDBytes / IDBits size the identifier space: 160-bit SHA-1, as in the
	// original Kademlia design.
	IDBytes = 20
	IDBits  = IDBytes * 8

	// DefaultK is the bucket capacity and the record replication factor.
	DefaultK = 8
	// DefaultAlpha is the lookup's concurrent query width.
	DefaultAlpha = 3
)

// ID is a 160-bit identifier. Nodes and record keys share one space, so the
// k nodes whose IDs are XOR-closest to a key hold its record.
type ID [IDBytes]byte

// NodeID derives a node's identifier from its transport address, so any peer
// can place any other peer in the space without a directory.
func NodeID(addr string) ID { return sha1.Sum([]byte(addr)) }

// KeyID derives a record key from a group name.
func KeyID(group string) ID { return sha1.Sum([]byte(group)) }

// FromBytes reconstructs an ID from its wire form (Message.Target).
func FromBytes(b []byte) (ID, bool) {
	var id ID
	if len(b) != IDBytes {
		return id, false
	}
	copy(id[:], b)
	return id, true
}

// Bytes returns the ID's wire form.
func (id ID) Bytes() []byte { return append([]byte(nil), id[:]...) }

// String renders the ID as lowercase hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Distance is the XOR metric: symmetric, unidirectional (exactly one ID at
// each distance from any point), and triangle-inequality-respecting.
func Distance(a, b ID) ID {
	var d ID
	for i := range d {
		d[i] = a[i] ^ b[i]
	}
	return d
}

// Closer reports whether a is strictly closer to target than b: the first
// byte where their distances differ decides.
func Closer(target, a, b ID) bool {
	for i := range target {
		if da, db := target[i]^a[i], target[i]^b[i]; da != db {
			return da < db
		}
	}
	return false
}

// BucketIndex places other in self's routing table: the position of the
// highest set bit of their XOR distance (0 = the far half of the space,
// IDBits-1 = differs only in the last bit). Returns -1 when the IDs are
// equal — a node never tables itself.
func BucketIndex(self, other ID) int {
	d := Distance(self, other)
	for i := 0; i < IDBytes; i++ {
		if d[i] != 0 {
			return 8*i + bits.LeadingZeros8(d[i])
		}
	}
	return -1
}
