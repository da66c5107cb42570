// Package transport provides the message transports of the live GroupCast
// runtime: a latency-modelled in-memory network for tests and simulations on
// one machine, and a TCP transport for real deployments, framed with the
// binary wire codec, with encode-once fan-out and one writer per link that
// sends queued control frames ahead of data in one vectored write.
package transport

import (
	"errors"
	"reflect"

	"groupcast/internal/metrics"
	"groupcast/internal/wire"
)

// Transport moves wire messages between nodes. Implementations must be safe
// for concurrent Send calls. Inbound messages land in the endpoint's one
// class-prioritized inbox, which has exactly one consumer: a node's loop
// waits on its doorbell and pops each message itself, with no goroutine in
// between; anything else may read the Recv adapter instead.
type Transport interface {
	// Addr returns this endpoint's stable address.
	Addr() string
	// Send delivers msg to the endpoint at addr (asynchronously; delivery is
	// best-effort and errors indicate immediate local failure only).
	Send(addr string, msg wire.Message) error
	// InboxQueue is the endpoint's inbound queue.
	InboxQueue() *PrioInbox
	// Recv is the inbound stream as a channel, closed by Close: the
	// inbox's Recv adapter. A node never reads it.
	Recv() <-chan wire.Message
	// Close releases the endpoint. Subsequent Sends fail.
	Close() error
}

// Errors shared by transports.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownPeer = errors.New("transport: unknown destination")
	// ErrUnreachable reports a destination behind a hard fault — crashed or
	// on the far side of a partition — where a real transport would fail the
	// connection rather than silently lose the message. Probabilistic loss
	// stays silent (lost on the wire, as on UDP).
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrSendQueueFull reports a destination whose bounded outbound send
	// queue is saturated — the peer is alive but consuming slower than the
	// caller produces. The message was not queued.
	ErrSendQueueFull = errors.New("transport: send queue full")
	// ErrBreakerOpen reports a destination guarded by an open circuit
	// breaker: recent sends failed or queued up, so the transport fails
	// fast instead of burning a deadline per message. A half-open probe
	// retries the link after a backoff.
	ErrBreakerOpen = errors.New("transport: circuit breaker open")
)

// MultiSender is implemented by transports that can deliver one message to
// many destinations more cheaply than repeated Sends — the TCP transport
// encodes the frame once and writes the same bytes to every link. The node
// layer uses it for tree fan-out (publish and relay); callers fall back to
// a Send loop when the transport does not implement it.
//
// each, when non-nil, is called synchronously, before SendMany returns,
// exactly once per address, in addrs order, with that link's outcome as
// Send would report it. An implementation must not keep addrs or each once
// SendMany returns: the node reuses the slice for its next fan-out and binds
// each once for all of them.
type MultiSender interface {
	SendMany(addrs []string, msg wire.Message, each func(addr string, err error))
}

// DropStats counts the messages an endpoint lost, split by cause. All
// counts are cumulative and monotonically increasing.
type DropStats struct {
	// InboxSheds counts inbound messages discarded because the endpoint's
	// inbox was full (backpressure becomes loss, like UDP). It is the sum of
	// the per-class breakdown below.
	InboxSheds uint64
	// ControlSheds, ReliableSheds and BestEffortSheds break InboxSheds down
	// by the wire.Class of the message lost. Under the prioritized inbox a
	// nonzero ControlSheds means the inbox was entirely full of control
	// traffic — the condition the overload experiment asserts never happens
	// with priority shedding while it demonstrably does on the legacy
	// single-queue policy.
	ControlSheds    uint64
	ReliableSheds   uint64
	BestEffortSheds uint64
	// FabricDrops counts outbound messages the fabric or chaos layer lost
	// (injected loss, partitions, crash-stopped peers) and, on TCP, the
	// frames a link's failed dial or write discarded.
	FabricDrops uint64
	// SendQueueDrops counts outbound frames discarded because a link's
	// bounded send queue was full — the peer is alive but consuming slower
	// than we produce (TCP transport only).
	SendQueueDrops uint64
	// BreakerRejects counts sends refused immediately by an open circuit
	// breaker guarding a slow or dead peer (TCP transport only).
	BreakerRejects uint64
	// Duplicates counts extra copies injected by the chaos layer.
	Duplicates uint64
}

// Total is the number of messages lost (duplicates are extra copies, not
// losses, and are excluded; the per-class shed fields are a breakdown of
// InboxSheds, not additional losses).
func (d DropStats) Total() uint64 {
	return d.InboxSheds + d.FabricDrops + d.SendQueueDrops + d.BreakerRejects
}

var dropFields = metrics.CounterFields(reflect.TypeOf(DropStats{}))

// Add accumulates other into d field by field (fleet-wide aggregation).
func (d *DropStats) Add(other DropStats) {
	metrics.FoldCounters(dropFields, d, &other, metrics.AddCounter)
}

// DropCounter is implemented by transports that account for shed and
// dropped messages. The node layer surfaces these through its Stats so soak
// tests can assert on loss.
type DropCounter interface {
	DropStats() DropStats
}

// QueueReporter is implemented by the endpoints that own an inbox (Mem and
// TCP): a shorthand for their InboxQueue's depth and capacity. The node
// reads its inbox directly.
type QueueReporter interface {
	// QueueDepth returns the number of inbound messages buffered and not yet
	// drained by the receiver.
	QueueDepth() int
	// QueueCapacity returns the inbound queue's fixed bound (0 when
	// unbounded or unknown).
	QueueCapacity() int
}

// BreakerState is a slow-peer circuit breaker's position.
type BreakerState uint8

// Breaker states.
const (
	// BreakerClosed: the link is healthy, sends flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the link tripped; sends fail fast until the backoff
	// elapses.
	BreakerOpen
	// BreakerHalfOpen: the backoff elapsed; one probe send is in flight to
	// decide between reclosing and reopening.
	BreakerHalfOpen
)

// String names the breaker state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "state(?)"
	}
}

// BreakerInfo is one destination's breaker snapshot for introspection.
type BreakerInfo struct {
	// Addr is the guarded destination.
	Addr string `json:"addr"`
	// State is the breaker's position ("closed", "open", "half-open").
	State string `json:"state"`
	// Failures is the consecutive-failure count feeding the trip decision.
	Failures int `json:"failures"`
	// Trips counts how many times the breaker has opened.
	Trips uint64 `json:"trips"`
	// BackoffMs is the current reopen backoff in milliseconds (only
	// meaningful when open).
	BackoffMs int64 `json:"backoff_ms"`
}

// BreakerReporter is implemented by transports that guard slow peers with
// per-destination circuit breakers. The introspection endpoint and the
// node's overload controller read the snapshot (open breakers raise the
// node's pressure signal).
type BreakerReporter interface {
	// Breakers snapshots every destination with breaker state, sorted by
	// address.
	Breakers() []BreakerInfo
}
