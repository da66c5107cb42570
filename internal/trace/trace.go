// Package trace is the message-tracing half of the observability layer: it
// defines the structured events the live runtime (internal/node) records as
// a message travels the overlay, a bounded ring buffer to hold them, and
// pluggable sinks (in-memory for tests, NDJSON for the daemon). Nothing else
// records these events. Every event carries enough identity
// (trace ID, group, source, sequence) that one publish can be reconstructed
// hop by hop across the tree — including its NACK recovery paths — purely
// from the events the nodes collected.
//
// Tracing is opt-in and bounded: a node without a Tracer pays a single nil
// check on the hot path, and a Tracer never holds more than its ring
// capacity of events.
package trace

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind string

// Event kinds. A payload's life is publish → (send → recv)* → deliver, with
// nack / nack-fwd / retransmit splicing in recovery hops.
const (
	// KindPublish marks the origin of a payload at its publisher.
	KindPublish Kind = "publish"
	// KindSend is one outbound copy on one overlay link (publish fan-out or
	// relay forwarding). Peer names the destination.
	KindSend Kind = "send"
	// KindRecv is a message ingested by a node's handler. Peer names the
	// previous hop.
	KindRecv Kind = "recv"
	// KindDeliver is a payload handed to the application.
	KindDeliver Kind = "deliver"
	// KindNack is a retransmission request originated by a receiver for its
	// own sequence gaps; KindNackFwd is a NACK escalated upstream after a
	// local cache miss.
	KindNack    Kind = "nack"
	KindNackFwd Kind = "nack-fwd"
	// KindRetransmit is a payload re-sent from a retransmission buffer in
	// answer to a NACK.
	KindRetransmit Kind = "retransmit"
	// KindAlert is a structured SLO alert from the telemetry plane
	// (internal/telemetry): a rule crossed its threshold (or recovered).
	// Msg names the rule, Peer the subject node, Value/Threshold the
	// measurement against the bound.
	KindAlert Kind = "alert"
)

// Event is one structured observation. Identity fields (TraceID, Group,
// Source, Seq) tie events of the same logical message together across nodes;
// (Group, Source, Seq) identifies a payload end to end even when a hop could
// not preserve the trace ID. Durations are microseconds so NDJSON stays
// compact and arithmetic-friendly.
type Event struct {
	// Time is when the event was recorded (the handler start for recv
	// events).
	Time time.Time `json:"t"`
	// Node is the address of the node that recorded the event.
	Node string `json:"node"`
	Kind Kind   `json:"kind"`
	// Msg is the wire message type name ("payload", "advertise", ...).
	Msg   string `json:"msg,omitempty"`
	Group string `json:"group,omitempty"`
	// TraceID correlates the hops of one protocol action (0 when the
	// originator had tracing disabled).
	TraceID uint64 `json:"trace,omitempty"`
	// Seq is the payload's per-(group, source) sequence number.
	Seq uint64 `json:"seq,omitempty"`
	// Source is the payload's original publisher.
	Source string `json:"src,omitempty"`
	// Peer is the remote end of the link: the previous hop on recv events,
	// the destination on send/nack/retransmit events.
	Peer string `json:"peer,omitempty"`
	// Hop counts overlay links travelled from the originator to this node.
	Hop int `json:"hop,omitempty"`
	// N is a batch size (missing sequences in one NACK message).
	N int `json:"n,omitempty"`
	// QueueUS is time spent queued before this node's handler saw the
	// message. Live, it is measured from the previous hop's hand-off to the
	// transport, so it folds in wire time the node cannot separate; the
	// in-memory fabric has (near-)zero wire latency, so there it reads as
	// pure queueing.
	QueueUS int64 `json:"queue_us,omitempty"`
	// HandleUS is the handler's execution time for this message.
	HandleUS int64 `json:"handle_us,omitempty"`
	// SendUS is the time spent handing the forwarded copies to the transport.
	SendUS int64 `json:"send_us,omitempty"`
	// AgeUS is the time since the payload's origin timestamp — the
	// cumulative publish→here latency.
	AgeUS int64 `json:"age_us,omitempty"`
	// Value and Threshold carry an SLO alert's measured value and the bound
	// it crossed (KindAlert events only).
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// Sink receives recorded events. Implementations must be safe for
// concurrent Record calls.
type Sink interface {
	Record(Event)
}

// Ring is a bounded, concurrency-safe event buffer: the newest `capacity`
// events survive, older ones are overwritten. It is the in-memory sink used
// by tests and the node's own introspection endpoint.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRing returns a ring holding at most capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (r *Ring) Record(ev Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the buffered events, oldest first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len counts the currently buffered events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total counts every event ever recorded (including overwritten ones).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// NDJSON is a sink writing one JSON document per event, newline-delimited —
// the daemon's trace file format. Writes are serialized; write failures are
// counted, not returned (tracing must never fail the data path), and
// surface through Errors for the node's Stats.
type NDJSON struct {
	mu     sync.Mutex
	w      io.Writer
	enc    *json.Encoder
	errors uint64
	closed bool
}

// NewNDJSON returns a sink writing NDJSON to w. The sink takes ownership:
// Close syncs and closes w when w can.
func NewNDJSON(w io.Writer) *NDJSON {
	return &NDJSON{w: w, enc: json.NewEncoder(w)}
}

// OpenFileSink opens (appending, creating if needed) the NDJSON trace file.
func OpenFileSink(path string) (*NDJSON, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return NewNDJSON(f), nil
}

// Record writes one event as a JSON line. Records after Close are dropped
// and counted as errors.
func (s *NDJSON) Record(ev Event) {
	s.mu.Lock()
	if s.closed || s.enc.Encode(ev) != nil {
		s.errors++
	}
	s.mu.Unlock()
}

// Errors counts failed or dropped writes so far.
func (s *NDJSON) Errors() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errors
}

// Close syncs w if it has a Sync method (a file fsyncs, so a clean node
// shutdown leaves a durable, complete trace file) and closes it if it is an
// io.Closer. Idempotent; a sync or close failure is returned and counted.
func (s *NDJSON) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if f, ok := s.w.(interface{ Sync() error }); ok {
		err = f.Sync()
	}
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.errors++
	}
	return err
}

// errorCounter is implemented by sinks that count failed writes (NDJSON).
type errorCounter interface{ Errors() uint64 }

// Tracer is what a node holds: a bounded ring (always, so the introspection
// endpoint can serve recent events) plus an optional secondary sink (the
// NDJSON file). A nil *Tracer means tracing is disabled.
type Tracer struct {
	ring *Ring
	sink Sink
}

// New returns a tracer with a ring of the given capacity and an optional
// extra sink (nil for ring-only tracing).
func New(capacity int, sink Sink) *Tracer {
	return &Tracer{ring: NewRing(capacity), sink: sink}
}

// Record stores one event in the ring and forwards it to the extra sink.
func (t *Tracer) Record(ev Event) {
	t.ring.Record(ev)
	if t.sink != nil {
		t.sink.Record(ev)
	}
}

// Events returns the ring's buffered events, oldest first. The optional
// limit keeps only the newest n (n <= 0 returns everything buffered).
func (t *Tracer) Events(n int) []Event {
	evs := t.ring.Snapshot()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Len counts the buffered events; Total counts everything ever recorded.
func (t *Tracer) Len() int      { return t.ring.Len() }
func (t *Tracer) Total() uint64 { return t.ring.Total() }

// SinkErrors counts the extra sink's failed writes (0 without a sink, or
// with one that doesn't count).
func (t *Tracer) SinkErrors() uint64 {
	if t == nil || t.sink == nil {
		return 0
	}
	if ec, ok := t.sink.(errorCounter); ok {
		return ec.Errors()
	}
	return 0
}

// Close flushes and closes the extra sink when it is closable (an NDJSON
// file fsyncs). Safe on a nil tracer, idempotent, and the ring stays
// readable afterwards.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	if c, ok := t.sink.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
