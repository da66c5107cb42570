// Package wire defines the message vocabulary of the live GroupCast runtime
// (internal/node): peer identification, probing, connection setup, epoch
// heartbeats, group advertisement, subscription, and payload dissemination.
// Messages are transport-agnostic values; the TCP transport frames them with
// the codec in codec.go — a hand-rolled binary layout (binary.go, wire
// version 2). The byte-level format is specified in docs/WIRE.md.
package wire

import (
	"fmt"
	"time"
)

// Type enumerates the protocol messages.
type Type int

// Protocol message types.
const (
	TProbe Type = iota + 1
	TProbeResp
	TConnect      // forward-connection notification (i adds k as out-neighbour)
	TBackConnect  // back-connection request (k decides with PB_k)
	TBackAccept   // back-connection accepted
	TAdvertise    // group advertisement (SSA/NSSA)
	TJoin         // subscription travelling a reverse path
	TJoinAck      // parent's confirmation of a direct join
	TSearch       // ripple search for an advertisement holder
	TSearchHit    // search response naming an access point
	TPayload      // group communication payload
	TBeacon       // rendezvous-rooted tree heartbeat flowing down the tree
	TLeave        // graceful neighbour departure
	THeartbeat    // epoch keepalive
	THeartbeatAck // keepalive response
	TNack         // retransmission request for missing payload sequences
	TDigest       // per-source high-water digest (anti-entropy heartbeat)
	THandoff      // graceful root departure handing the charter to a deputy

	// DHT discovery plane (internal/dht): Kademlia-style iterative lookups
	// over the same transport, replacing the ripple-search flood for group
	// discovery at scale.
	TDhtFindNode      // request the k closest known contacts to a 160-bit target
	TDhtFindNodeResp  // closest-contact reply (Neighbors)
	TDhtFindValue     // request a group's charter record, or closer contacts
	TDhtFindValueResp // record hit (Rendezvous/Epoch/Charter) or contact miss (Neighbors)
	TDhtStore         // replicate a group record onto one of the k closest nodes
	TDhtStoreAck      // store acknowledgement echoing the retained epoch

	// TTelemetry is a standalone health-digest exchange (internal/telemetry):
	// the same Health payload that piggybacks on heartbeats and beacons, sent
	// on its own when a node has digests to gossip but no heartbeat due (or a
	// collector asks for a push). Control class, never shed by the priority
	// inbox before best-effort traffic.
	TTelemetry

	// TRecoveryState frames never cross the network: they are the on-disk
	// record format of the crash-restart state file (internal/recovery),
	// reusing the wire codec so the durable layout rides the same versioning
	// and fuzzing the protocol does. One identity frame (From, Epoch,
	// Neighbors = DHT contact snapshot) followed by one frame per group
	// (GroupID, Mode, Epoch, Rendezvous, Deputies, Charter, Seq = publish
	// high-water, Digest = per-source receive high-waters, TTL = role flags).
	TRecoveryState
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case TProbe:
		return "probe"
	case TProbeResp:
		return "probe-resp"
	case TConnect:
		return "connect"
	case TBackConnect:
		return "back-connect"
	case TBackAccept:
		return "back-accept"
	case TAdvertise:
		return "advertise"
	case TJoin:
		return "join"
	case TJoinAck:
		return "join-ack"
	case TSearch:
		return "search"
	case TSearchHit:
		return "search-hit"
	case TPayload:
		return "payload"
	case TBeacon:
		return "beacon"
	case TLeave:
		return "leave"
	case THeartbeat:
		return "heartbeat"
	case THeartbeatAck:
		return "heartbeat-ack"
	case TNack:
		return "nack"
	case TDigest:
		return "digest"
	case THandoff:
		return "handoff"
	case TDhtFindNode:
		return "dht-find-node"
	case TDhtFindNodeResp:
		return "dht-find-node-resp"
	case TDhtFindValue:
		return "dht-find-value"
	case TDhtFindValueResp:
		return "dht-find-value-resp"
	case TDhtStore:
		return "dht-store"
	case TDhtStoreAck:
		return "dht-store-ack"
	case TTelemetry:
		return "telemetry"
	case TRecoveryState:
		return "recovery-state"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// DeliveryMode selects a group's data-plane reliability level. The mode is
// a group property chosen by the rendezvous at creation time; members learn
// it from advertisements, join acks, and beacons.
type DeliveryMode uint8

// Delivery modes, weakest first.
const (
	// BestEffort is fire-and-forget tree flooding: payloads lost on the
	// wire are gone, duplicates are filtered, no ordering is promised.
	BestEffort DeliveryMode = iota
	// Reliable adds per-source sequencing with NACK retransmission and
	// digest anti-entropy: every payload is eventually delivered (within
	// the recovery window) but may arrive out of order.
	Reliable
	// ReliableOrdered additionally releases each source's payloads to the
	// application in publish order (per-source FIFO).
	ReliableOrdered
)

// String names the delivery mode.
func (m DeliveryMode) String() string {
	switch m {
	case BestEffort:
		return "best-effort"
	case Reliable:
		return "reliable"
	case ReliableOrdered:
		return "reliable-ordered"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseDeliveryMode maps a mode name (as printed by String) back to the
// mode.
func ParseDeliveryMode(s string) (DeliveryMode, error) {
	switch s {
	case "best-effort", "besteffort", "":
		return BestEffort, nil
	case "reliable":
		return Reliable, nil
	case "reliable-ordered", "ordered":
		return ReliableOrdered, nil
	}
	return BestEffort, fmt.Errorf("wire: unknown delivery mode %q", s)
}

// DigestEntry is one source's high-water mark in a TDigest message: the
// sender has seen (or published) sequences up to High from Source.
type DigestEntry struct {
	Source string
	High   uint64
}

// Charter is the compact group descriptor a rendezvous replicates to its
// deputies so the group survives the root: identity, delivery mode, the
// root's succession epoch, the ordered deputy roster (highest Eq. 6 utility
// first), and the per-source sequence high-water marks at replication time.
// A deputy that promotes itself seeds its receive windows from HighWater, so
// publishes in flight at the crash recover through the normal NACK/digest
// path against the new root. A zero Epoch means "no charter".
type Charter struct {
	GroupID string
	Mode    DeliveryMode
	// Epoch is the issuing root's succession epoch: 1 at group creation,
	// incremented by every promotion. Conflicting roots after a partition
	// heal are resolved by epoch comparison (higher wins; ties go to the
	// lexicographically lower address).
	Epoch uint64
	// Deputies is the ordered succession roster. Deputy #i promotes itself
	// after suspectEpochs+i silent beacon epochs; the first live deputy wins.
	Deputies []PeerInfo
	// HighWater lists per-source publish high-water marks, sorted by source.
	HighWater []DigestEntry
}

// HealthDigest is one node's compact self-report for the gossiped fleet
// view (internal/telemetry): identity, the reporter's beacon epoch, the
// utility/pressure/latency summary of its local state, and the cumulative
// delivery/shed counters the SLO rules derive ratios from. Digests ride
// heartbeats, beacons, and TTelemetry messages; each is ~40-60 bytes on the
// wire (see docs/WIRE.md, Health digest layout).
type HealthDigest struct {
	// Addr is the reporting node (digests are relayed, so the message sender
	// and the digest subject differ on gossiped entries).
	Addr string `json:"addr"`
	// Epoch is the reporter's own beacon-epoch counter at sampling time.
	// Receivers keep only the highest epoch per node, which makes the fleet
	// view eventually consistent without any ordering on the gossip paths.
	Epoch uint64 `json:"epoch"`
	// Utility is the mean Eq. 6 selection preference across the reporter's
	// tree links (0 when it has none).
	Utility float64 `json:"utility"`
	// Pressure is the overload controller's last pressure sample in [0, 1].
	Pressure float64 `json:"pressure"`
	// P99Ms is the p99 publish→deliver latency in milliseconds.
	P99Ms float64 `json:"p99_ms"`
	// Inbox is the inbound queue depth at sampling time.
	Inbox uint64 `json:"inbox"`
	// Delivered counts payloads handed to the application (cumulative).
	Delivered uint64 `json:"delivered"`
	// Shed counts work dropped under pressure: transport inbox sheds plus
	// admission-control rejects plus relay sheds (cumulative).
	Shed uint64 `json:"shed"`
	// Degraded reports the overload controller's hysteresis state.
	Degraded bool `json:"degraded,omitempty"`
}

// PeerInfo is the identifier quadruplet of Section 3.3:
// ⟨address, coordinate, capacity⟩ (address subsumes IP + port).
type PeerInfo struct {
	Addr string
	// Coord is the peer's network coordinate. In a decoded message it is
	// read-only: a FrameReader hands every frame from the same peer the same
	// slice while the coordinate is unchanged, so copy it before writing.
	Coord    []float64
	Capacity float64
	// CoordErr is the sender's Vivaldi error estimate when live coordinate
	// measurement is enabled (0 for static coordinates).
	CoordErr float64
}

// Message is the single envelope of the live protocol. Fields are used
// per-type; unused fields stay zero.
type Message struct {
	Type Type
	// From is the sender's info (always set).
	From PeerInfo
	// ReqID correlates probe/search requests with responses.
	ReqID uint64

	// Neighbors carries a probe response's neighbour list.
	Neighbors []PeerInfo

	// GroupID names the communication group for group-scoped messages.
	GroupID string
	// Rendezvous identifies the group's rendezvous point on advertisements.
	Rendezvous PeerInfo
	// TTL bounds advertisement and search propagation.
	TTL int
	// Origin is the search originator (search hits are sent straight back).
	Origin PeerInfo
	// Subscriber is the peer a join is being made for.
	Subscriber PeerInfo

	// MsgID deduplicates flooded advertisements and searches.
	MsgID uint64
	// Data is the application payload.
	Data []byte

	// Seq is the payload's per-(group, source) sequence number, stamped by
	// the publisher (first sequence is 1; 0 means unsequenced). From stays
	// the original publisher across hops, so (GroupID, From.Addr, Seq)
	// identifies a payload end to end.
	Seq uint64
	// Relay is the forwarding hop a payload last travelled through (the
	// publisher itself on the first hop). Receivers NACK missing sequences
	// back along this link.
	Relay PeerInfo
	// Mode carries the group's delivery mode on advertisements, joins,
	// join acks, search hits, beacons, and digests.
	Mode DeliveryMode
	// NackSource and NackSeqs name the publisher and the missing sequences
	// a TNack requests; Origin is the requester the retransmissions go
	// straight back to, and TTL bounds the hop-by-hop escalation toward
	// the source.
	NackSource string
	NackSeqs   []uint64
	// Digest lists per-source high-water marks on TDigest messages.
	Digest []DigestEntry

	// Epoch is the sending root's succession epoch on advertisements,
	// beacons, and handoffs (0 when the sender predates succession or is not
	// speaking for a root). Receivers resolve conflicting root claims by
	// comparing epochs.
	Epoch uint64
	// Deputies is the group's ordered succession roster, carried down the
	// tree on beacons so every member knows who inherits the group.
	Deputies []PeerInfo
	// Charter is the replicated group descriptor on beacons addressed to
	// deputies and on THandoff messages (zero Epoch means absent).
	Charter Charter

	// SentAt timestamps heartbeats for RTT measurement.
	SentAt time.Time

	// TraceID correlates the hops of one protocol action for the tracing
	// layer (internal/trace): stamped by the originator on payloads,
	// advertisements, joins (echoed on acks), searches, NACKs, and carried
	// through relays and retransmissions. 0 means the originator did not
	// trace.
	TraceID uint64
	// Hops counts overlay links the message travelled from its originator
	// (0 on the first wire hop; each relay increments before forwarding).
	Hops int
	// OriginAt is the publisher's timestamp on payloads — the zero point of
	// end-to-end latency measurement. Retransmission buffers preserve it so
	// NACK-recovered payloads still measure true publish→deliver latency.
	OriginAt time.Time
	// RelayedAt is when the previous hop handed the message to its
	// transport, letting the receiver measure per-hop queue+wire delay
	// without a shared clock beyond the host's (in-process fabrics and
	// single-host deployments; cross-host skew only distorts, never breaks,
	// the trace).
	RelayedAt time.Time

	// Path carries a tree root path (addresses from a node up to the
	// rendezvous) on join acks and search hits, letting re-joining members
	// avoid attaching inside their own subtree.
	Path []string

	// Backups lists precomputed backup access points on beacons and join
	// acks: tree nodes outside the recipient's subtree (its grandparent,
	// siblings, the rendezvous, and inherited ancestors' backups) that the
	// recipient can fail over to directly when its parent dies, without
	// paying a ripple search: the dynamic-replication extension the paper
	// cites for reliability ([35]).
	Backups []PeerInfo

	// Target is the 20-byte DHT identifier a TDhtFindNode lookup steps
	// toward (arbitrary targets cover bucket refresh and self-lookups;
	// value lookups derive their key from GroupID instead).
	Target []byte

	// Health carries gossiped health digests (the sender's own plus a
	// bounded sample of its fleet view) on heartbeats, beacons, and
	// TTelemetry messages. See internal/telemetry.
	Health []HealthDigest
}
