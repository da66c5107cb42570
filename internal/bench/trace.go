package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// SpanKind names the layer boundary a span was recorded at.
type SpanKind uint8

const (
	// SpanPublish is one node.Publish call, recorded by the driver.
	SpanPublish SpanKind = iota
	// SpanSend is the time a payload spent inside the transport's Send or
	// SendMany until one link's outcome was reported, recorded by the traced
	// transport wrapper. A SendMany to k links yields k spans sharing a start.
	SpanSend
	// SpanHandler is one PayloadHandler call, recorded by the driver.
	SpanHandler
)

func (k SpanKind) String() string {
	switch k {
	case SpanPublish:
		return "publish"
	case SpanSend:
		return "send"
	case SpanHandler:
		return "handler"
	}
	return "?"
}

// Span is one timed interval at a layer boundary. Spans of one publish share
// Pub, the publish index the payload carries in its first eight bytes (the
// driver maps it to the (source, per-source sequence) pair). Times are
// nanoseconds on the recorder's monotonic clock. Cause is the index, within
// the publish's span list, of the span that caused this one (-1 for the
// publish itself); it is filled in when the trace is analysed.
type Span struct {
	Pub        uint64
	Start, End int64
	Cause      int32
	Kind       SpanKind
	Node       uint8
	// Peer is the destination node of a send span.
	Peer uint8
}

// Recorder keeps every span in memory, one log per node so the nodes'
// goroutines do not contend, until the run ends.
type Recorder struct {
	epoch time.Time
	logs  [NumNodes]spanLog
}

type spanLog struct {
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now reads the recorder's monotonic clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

func (r *Recorder) add(s Span) {
	l := &r.logs[s.Node]
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// ByPublish groups every recorded span by publish index. Call it after the
// cluster is closed.
func (r *Recorder) ByPublish() map[uint64][]Span {
	out := make(map[uint64][]Span)
	for i := range r.logs {
		for _, s := range r.logs[i].spans {
			out[s.Pub] = append(out[s.Pub], s)
		}
	}
	return out
}

// WriteNDJSON writes the spans of publishes from ≤ pub < to, one JSON object
// a line: {name, node, peer, pub, start_ns, end_ns}.
func (r *Recorder) WriteNDJSON(w io.Writer, from, to uint64) error {
	enc := json.NewEncoder(w)
	for i := range r.logs {
		for _, s := range r.logs[i].spans {
			if s.Pub < from || s.Pub >= to {
				continue
			}
			rec := struct {
				Name  string `json:"name"`
				Node  uint8  `json:"node"`
				Peer  *uint8 `json:"peer,omitempty"`
				Pub   uint64 `json:"pub"`
				Start int64  `json:"start_ns"`
				End   int64  `json:"end_ns"`
			}{Name: s.Kind.String(), Node: s.Node, Pub: s.Pub, Start: s.Start, End: s.End}
			if s.Kind == SpanSend {
				peer := s.Peer
				rec.Peer = &peer
			}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("write span: %w", err)
			}
		}
	}
	return nil
}

// endpoint is what both of the repo's transports offer beyond Transport; the
// node type-asserts for each of these, so the wrapper must keep them.
type endpoint interface {
	transport.Transport
	transport.MultiSender
	transport.QueueReporter
	transport.DropCounter
	InboxQueue() *transport.PrioInbox
}

// tracedTransport wraps a node's transport for the traced run: it records a
// send span around every payload Send/SendMany and forwards everything else,
// including the optional interfaces the node type-asserts for, so the node
// takes the same code paths as on the bare transport.
type tracedTransport struct {
	endpoint
	rec   *Recorder
	node  uint8
	index map[string]int // address → node index; read-only once nodes start
}

var _ transport.BreakerReporter = (*tracedTransport)(nil)

// Wrap is the BuildCluster wrap function that traces into r.
func (r *Recorder) Wrap(i int, tr transport.Transport, index map[string]int) transport.Transport {
	return &tracedTransport{endpoint: tr.(endpoint), rec: r, node: uint8(i), index: index}
}

// pubOf extracts the publish index a benchmark payload carries.
func pubOf(msg *wire.Message) (uint64, bool) {
	if msg.Type != wire.TPayload || len(msg.Data) < payloadHeader {
		return 0, false
	}
	return binary.LittleEndian.Uint64(msg.Data), true
}

func (t *tracedTransport) sendSpan(pub uint64, addr string, start int64) {
	t.rec.add(Span{Pub: pub, Start: start, End: t.rec.Now(), Cause: -1,
		Kind: SpanSend, Node: t.node, Peer: uint8(t.index[addr])})
}

func (t *tracedTransport) Send(addr string, msg wire.Message) error {
	pub, ok := pubOf(&msg)
	if !ok {
		return t.endpoint.Send(addr, msg)
	}
	start := t.rec.Now()
	err := t.endpoint.Send(addr, msg)
	t.sendSpan(pub, addr, start)
	return err
}

func (t *tracedTransport) SendMany(addrs []string, msg wire.Message, each func(addr string, err error)) {
	pub, ok := pubOf(&msg)
	if !ok {
		t.endpoint.SendMany(addrs, msg, each)
		return
	}
	start := t.rec.Now()
	t.endpoint.SendMany(addrs, msg, func(addr string, err error) {
		t.sendSpan(pub, addr, start)
		if each != nil {
			each(addr, err)
		}
	})
}

// Breakers and OutboundQueueDepth exist on the TCP transport only; on the
// in-memory endpoint they read as "no breakers, nothing queued".

func (t *tracedTransport) Breakers() []transport.BreakerInfo {
	if b, ok := t.endpoint.(transport.BreakerReporter); ok {
		return b.Breakers()
	}
	return nil
}

func (t *tracedTransport) OutboundQueueDepth() int {
	if o, ok := t.endpoint.(interface{ OutboundQueueDepth() int }); ok {
		return o.OutboundQueueDepth()
	}
	return 0
}

// PathBreakdown splits one publish's fan-out latency along the tree path from
// its source to the member that delivered last. All values are nanoseconds.
type PathBreakdown struct {
	// Fanout is Publish entry → handler return at the last-delivering member.
	Fanout float64
	// PublishSelf is the Publish span's self time (its duration minus the
	// send spans inside it).
	PublishSelf float64
	// Send sums, over the path's links, the time inside Send/SendMany until
	// that link's outcome was reported.
	Send float64
	// HopTransit sums send end → next node's handler start.
	HopTransit float64
	// Handler sums the benchmark's own handler calls on the path.
	Handler float64
	// RelaySelf sums handler return → relay send start at the path's
	// interior nodes.
	RelaySelf float64
}

// Residual is the share of Fanout the parts fail to tile: |Σparts − Fanout|
// ÷ Fanout. With every span present it is the tail of Publish after its last
// send returned, which is off the blocking path.
func (b PathBreakdown) Residual() float64 {
	sum := b.PublishSelf + b.Send + b.HopTransit + b.Handler + b.RelaySelf
	d := sum - b.Fanout
	if d < 0 {
		d = -d
	}
	return d / b.Fanout
}

// SelfTime is span i's duration minus the part of its interval that the spans
// it caused cover (overlapping children are counted once).
func SelfTime(spans []Span, i int) int64 {
	p := spans[i]
	type iv struct{ s, e int64 }
	var kids []iv
	for _, c := range spans {
		if int(c.Cause) != i {
			continue
		}
		s, e := max(c.Start, p.Start), min(c.End, p.End)
		if s < e {
			kids = append(kids, iv{s, e})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].s < kids[b].s })
	self := p.End - p.Start
	covered := p.Start
	for _, k := range kids {
		if k.e <= covered {
			continue
		}
		self -= k.e - max(k.s, covered)
		covered = k.e
	}
	return self
}

// treePath returns the nodes from a to b along the pinned tree, both ends
// included.
func treePath(a, b int) []int {
	var up, down []int
	for a != b {
		if a > b {
			up = append(up, a)
			a = ParentOf(a)
		} else {
			down = append(down, b)
			b = ParentOf(b)
		}
	}
	up = append(up, a)
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// AnalyzePublish links the spans of one publish into a cause tree (publish →
// its sends → the handler each send fed → that node's relay sends) and
// breaks the fan-out down along the path to the last-delivering member. It
// fails when a span on that path is missing.
func AnalyzePublish(spans []Span) (PathBreakdown, error) {
	pubIdx, last := -1, -1
	handlerAt := map[uint8]int{}
	sendAt := map[[2]uint8]int{}
	for i, s := range spans {
		switch s.Kind {
		case SpanPublish:
			pubIdx = i
		case SpanHandler:
			handlerAt[s.Node] = i
			if last < 0 || s.End > spans[last].End {
				last = i
			}
		case SpanSend:
			sendAt[[2]uint8{s.Node, s.Peer}] = i
		}
	}
	if pubIdx < 0 || last < 0 {
		return PathBreakdown{}, fmt.Errorf("publish %d: no publish or handler span", spans[0].Pub)
	}
	src := spans[pubIdx].Node
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Kind == SpanSend && s.Node == src:
			s.Cause = int32(pubIdx)
		case s.Kind == SpanSend:
			if h, ok := handlerAt[s.Node]; ok {
				s.Cause = int32(h)
			}
		case s.Kind == SpanHandler:
			// The payload arrived from the neighbour that lies toward the
			// source (the parent, or a child when the payload climbed).
			from := treePath(int(s.Node), int(src))[1]
			if x, ok := sendAt[[2]uint8{uint8(from), s.Node}]; ok {
				s.Cause = int32(x)
			}
		}
	}

	b := PathBreakdown{
		Fanout:      float64(spans[last].End - spans[pubIdx].Start),
		PublishSelf: float64(SelfTime(spans, pubIdx)),
	}
	path := treePath(int(src), int(spans[last].Node))
	for i := 0; i+1 < len(path); i++ {
		u, v := uint8(path[i]), uint8(path[i+1])
		x, ok := sendAt[[2]uint8{u, v}]
		if !ok {
			return b, fmt.Errorf("publish %d: no send span %d→%d", spans[0].Pub, u, v)
		}
		h, ok := handlerAt[v]
		if !ok {
			return b, fmt.Errorf("publish %d: no handler span at node %d", spans[0].Pub, v)
		}
		b.Send += float64(spans[x].End - spans[x].Start)
		b.HopTransit += float64(spans[h].Start - spans[x].End)
		b.Handler += float64(SelfTime(spans, h))
		if i > 0 {
			b.RelaySelf += float64(spans[x].Start - spans[handlerAt[u]].End)
		}
	}
	return b, nil
}
