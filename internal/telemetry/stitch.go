package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"groupcast/internal/trace"
)

// This file implements cross-node trace stitching: pull each process's trace
// events (live via /debug/trace, or offline via the -trace-file NDJSON),
// estimate every node's clock offset, and merge the hops of one publish into
// a single causally ordered multi-process timeline.
//
// The offset estimator is the classic NTP exchange re-derived from data the
// overlay already records. A send event at A for a message later received at
// B gives delta = recv_B - send_A = (offset_B - offset_A) + delay; the
// reverse direction gives delta' = (offset_A - offset_B) + delay'. Taking
// the MINIMUM delta per direction discards queueing noise (minimum-filter,
// as NTP does), and under the symmetric-path assumption — the same RTT/2
// logic the heartbeat RTT measurement rests on — the relative offset is
// (min delta - min delta')/2. Offsets propagate from a reference node by BFS
// over the pairwise graph, so nodes that never exchanged messages directly
// are still aligned through intermediaries.

// Stitcher accumulates per-process trace events and computes stitched
// timelines. It is not safe for concurrent use; collect, then stitch.
type Stitcher struct {
	events map[string][]trace.Event
}

// NewStitcher returns an empty collector.
func NewStitcher() *Stitcher {
	return &Stitcher{events: make(map[string][]trace.Event)}
}

// AddNode adds one process's events under its node address. Repeated calls
// for the same address append.
func (s *Stitcher) AddNode(addr string, events []trace.Event) {
	s.events[addr] = append(s.events[addr], events...)
}

// ReadNDJSON ingests a -trace-file style NDJSON stream for one node. Blank
// lines are skipped; a malformed line aborts with its line number.
func (s *Stitcher) ReadNDJSON(addr string, r *bufio.Scanner) error {
	line := 0
	for r.Scan() {
		line++
		raw := r.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("ndjson %s line %d: %w", addr, line, err)
		}
		s.events[addr] = append(s.events[addr], ev)
	}
	return r.Err()
}

// FetchHTTP pulls one process's /debug/trace ring over HTTP (baseURL like
// "http://127.0.0.1:8080") and files the events under the address the node
// reports for itself. A nil client uses http.DefaultClient.
func (s *Stitcher) FetchHTTP(client *http.Client, baseURL string) (string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(baseURL + "/debug/trace")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fetch %s/debug/trace: status %s", baseURL, resp.Status)
	}
	var body struct {
		Addr    string        `json:"addr"`
		Tracing bool          `json:"tracing"`
		Events  []trace.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", fmt.Errorf("fetch %s/debug/trace: %w", baseURL, err)
	}
	if body.Addr == "" {
		return "", fmt.Errorf("fetch %s/debug/trace: node reported no address", baseURL)
	}
	s.AddNode(body.Addr, body.Events)
	return body.Addr, nil
}

// Nodes lists the collected node addresses, sorted.
func (s *Stitcher) Nodes() []string {
	out := make([]string, 0, len(s.events))
	for addr := range s.events {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// pairKey identifies one logical message for send↔recv matching across two
// processes. Msg disambiguates e.g. the payload and the NACK that names the
// same (group, source, seq).
type pairKey struct {
	traceID uint64
	group   string
	source  string
	seq     uint64
	msg     string
}

func keyOf(ev *trace.Event) pairKey {
	return pairKey{traceID: ev.TraceID, group: ev.Group, source: ev.Source,
		seq: ev.Seq, msg: ev.Msg}
}

// sendKinds are event kinds that put a message on the wire toward Peer;
// KindRecv is their receive side.
func isSendKind(k trace.Kind) bool {
	return k == trace.KindSend || k == trace.KindNack || k == trace.KindNackFwd ||
		k == trace.KindRetransmit
}

// Offsets estimates each node's clock offset relative to ref, in the sense
// localTime(node) = trueTime + offset(node), so subtracting a node's offset
// aligns its timestamps with ref's clock. Nodes unreachable through the
// pairwise message graph are absent from the map (their events cannot be
// aligned and keep raw timestamps).
func (s *Stitcher) Offsets(ref string) map[string]time.Duration {
	// minDelta[a][b] = min over matched messages a→b of (recv_b - send_a).
	minDelta := make(map[string]map[string]time.Duration)
	note := func(a, b string, d time.Duration) {
		m := minDelta[a]
		if m == nil {
			m = make(map[string]time.Duration)
			minDelta[a] = m
		}
		if cur, ok := m[b]; !ok || d < cur {
			m[b] = d
		}
	}
	// Index sends by (fromNode, toPeer, key) and zip against receives in
	// time order, so retransmitted duplicates pair first-with-first.
	type linkKey struct {
		from, to string
		k        pairKey
	}
	sends := make(map[linkKey][]time.Time)
	recvs := make(map[linkKey][]time.Time)
	for addr, evs := range s.events {
		for i := range evs {
			ev := &evs[i]
			if isSendKind(ev.Kind) && ev.Peer != "" {
				lk := linkKey{from: addr, to: ev.Peer, k: keyOf(ev)}
				sends[lk] = append(sends[lk], ev.Time)
			} else if ev.Kind == trace.KindRecv && ev.Peer != "" {
				lk := linkKey{from: ev.Peer, to: addr, k: keyOf(ev)}
				recvs[lk] = append(recvs[lk], ev.Time)
			}
		}
	}
	for lk, st := range sends {
		rt := recvs[lk]
		if len(rt) == 0 {
			continue
		}
		sort.Slice(st, func(i, j int) bool { return st[i].Before(st[j]) })
		sort.Slice(rt, func(i, j int) bool { return rt[i].Before(rt[j]) })
		// Zip from the END: when a copy was lost (more sends than receives,
		// e.g. a drop followed by a NACKed retransmit) the orphaned sends
		// are the early ones, and pairing a receive with the send that
		// actually caused it is what keeps the delta honest.
		n := len(st)
		if len(rt) < n {
			n = len(rt)
		}
		for i := 1; i <= n; i++ {
			note(lk.from, lk.to, rt[len(rt)-i].Sub(st[len(st)-i]))
		}
	}
	// BFS from ref. Edge a→b: with both directions measured,
	// offset_b - offset_a = (minDelta[a][b] - minDelta[b][a]) / 2; with one
	// direction only, fall back to the raw delta (zero-delay assumption —
	// an upper bound, still monotone enough to order hops).
	offsets := map[string]time.Duration{ref: 0}
	if _, ok := s.events[ref]; !ok && len(s.events) > 0 {
		return map[string]time.Duration{}
	}
	queue := []string{ref}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		neigh := make(map[string]bool)
		for b := range minDelta[a] {
			neigh[b] = true
		}
		for b, m := range minDelta {
			if _, ok := m[a]; ok {
				neigh[b] = true
			}
		}
		// Deterministic BFS order.
		bs := make([]string, 0, len(neigh))
		for b := range neigh {
			bs = append(bs, b)
		}
		sort.Strings(bs)
		for _, b := range bs {
			if _, done := offsets[b]; done {
				continue
			}
			fwd, hasFwd := minDelta[a][b]
			rev, hasRev := minDelta[b][a]
			var rel time.Duration
			switch {
			case hasFwd && hasRev:
				rel = (fwd - rev) / 2
			case hasFwd:
				rel = fwd
			default:
				rel = -rev
			}
			offsets[b] = offsets[a] + rel
			queue = append(queue, b)
		}
	}
	return offsets
}

// StitchedEvent is one event of a merged timeline with its timestamp
// translated onto the reference node's clock.
type StitchedEvent struct {
	trace.Event
	Adjusted time.Time `json:"adjusted"`
}

// Timeline is the stitched, causally ordered view of one message (or one
// filter's worth of traffic) across every collected process.
type Timeline struct {
	Ref string `json:"ref"`
	// OffsetsUS is the estimated per-node clock offset (µs, relative to
	// Ref) that was subtracted from that node's timestamps.
	OffsetsUS map[string]int64 `json:"offsets_us"`
	Nodes     []string         `json:"nodes"`
	Events    []StitchedEvent  `json:"events"`
}

// StitchFilter selects the events to merge. Zero fields match everything;
// the usual call sets just TraceID.
type StitchFilter struct {
	TraceID uint64
	Group   string
	Source  string
}

func (f StitchFilter) match(ev *trace.Event) bool {
	if f.TraceID != 0 && ev.TraceID != f.TraceID {
		return false
	}
	if f.Group != "" && ev.Group != f.Group {
		return false
	}
	if f.Source != "" && ev.Source != f.Source {
		return false
	}
	return true
}

// kindRank breaks exact-timestamp ties causally: an origin precedes its
// sends, sends precede receives, delivery follows receipt, recovery events
// trail the delivery attempt that exposed the gap.
func kindRank(k trace.Kind) int {
	switch k {
	case trace.KindPublish:
		return 0
	case trace.KindSend:
		return 1
	case trace.KindRecv:
		return 2
	case trace.KindDeliver:
		return 3
	case trace.KindNack:
		return 4
	case trace.KindNackFwd:
		return 5
	case trace.KindRetransmit:
		return 6
	default:
		return 7
	}
}

// Stitch merges every collected event matching the filter into one timeline
// on ref's clock: each event's timestamp is shifted by its node's estimated
// offset, then the merged set is sorted by adjusted time with hop count and
// kind rank breaking ties.
func (s *Stitcher) Stitch(ref string, f StitchFilter) Timeline {
	offsets := s.Offsets(ref)
	tl := Timeline{Ref: ref, OffsetsUS: make(map[string]int64, len(offsets))}
	for addr, off := range offsets {
		tl.OffsetsUS[addr] = off.Microseconds()
	}
	nodes := make(map[string]bool)
	for addr, evs := range s.events {
		off := offsets[addr] // unreachable nodes keep raw timestamps
		for i := range evs {
			if !f.match(&evs[i]) {
				continue
			}
			nodes[addr] = true
			tl.Events = append(tl.Events, StitchedEvent{
				Event:    evs[i],
				Adjusted: evs[i].Time.Add(-off),
			})
		}
	}
	for addr := range nodes {
		tl.Nodes = append(tl.Nodes, addr)
	}
	sort.Strings(tl.Nodes)
	sort.SliceStable(tl.Events, func(i, j int) bool {
		a, b := &tl.Events[i], &tl.Events[j]
		if !a.Adjusted.Equal(b.Adjusted) {
			return a.Adjusted.Before(b.Adjusted)
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		if ra, rb := kindRank(a.Kind), kindRank(b.Kind); ra != rb {
			return ra < rb
		}
		return a.Node < b.Node
	})
	return tl
}

// CausalViolations counts matched cross-process send→recv pairs whose
// adjusted timestamps are out of order — the stitching quality metric (0
// means every wire crossing in the timeline reads causally).
func (tl Timeline) CausalViolations() int {
	type linkKey struct {
		from, to string
		k        pairKey
	}
	sends := make(map[linkKey][]time.Time)
	recvs := make(map[linkKey][]time.Time)
	for i := range tl.Events {
		ev := &tl.Events[i]
		if isSendKind(ev.Kind) && ev.Peer != "" {
			lk := linkKey{from: ev.Node, to: ev.Peer, k: keyOf(&ev.Event)}
			sends[lk] = append(sends[lk], ev.Adjusted)
		} else if ev.Kind == trace.KindRecv && ev.Peer != "" {
			lk := linkKey{from: ev.Peer, to: ev.Node, k: keyOf(&ev.Event)}
			recvs[lk] = append(recvs[lk], ev.Adjusted)
		}
	}
	violations := 0
	for lk, st := range sends {
		rt := recvs[lk]
		if len(rt) == 0 || lk.from == lk.to {
			continue
		}
		sort.Slice(st, func(i, j int) bool { return st[i].Before(st[j]) })
		sort.Slice(rt, func(i, j int) bool { return rt[i].Before(rt[j]) })
		n := len(st)
		if len(rt) < n {
			n = len(rt)
		}
		for i := 0; i < n; i++ {
			if rt[i].Before(st[i]) {
				violations++
			}
		}
	}
	return violations
}
