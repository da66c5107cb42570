package node

import (
	"sort"
	"sync/atomic"
	"time"

	"groupcast/internal/reliable"
	"groupcast/internal/trace"
	"groupcast/internal/wire"
)

// This file is the node half of the reliable data plane (internal/reliable
// holds the pure state machines): per-source receive windows fed by
// handlePayload, the NACK sweep that turns detected gaps into upstream
// retransmission requests, the relays' NACK answering/escalation, and the
// per-epoch digest anti-entropy that recovers trailing losses no later
// payload would ever reveal.

// maxSourcesPerGroup bounds how many per-source receive windows one group
// may pin; creating one more evicts the longest-idle window.
const maxSourcesPerGroup = 256

// windowFor returns the receive window tracking src's stream in gs, creating
// (or rebuilding, when the group's delivery mode changed since the window was
// built) it on demand.
func (n *Node) windowFor(gs *groupState, src wire.PeerInfo) *reliable.SourceWindow {
	ordered := gs.mode == wire.ReliableOrdered
	reliableMode := gs.mode != wire.BestEffort
	w := gs.recv[src.Addr]
	if w == nil || !w.Configured(ordered, reliableMode) {
		if w == nil && len(gs.recv) >= maxSourcesPerGroup {
			evictIdlestWindow(gs)
		}
		w = reliable.NewSourceWindow(reliable.DefaultWindowSpan, reliable.DefaultCachePayloads, ordered, reliableMode)
		gs.recv[src.Addr] = w
	}
	if w.Info.Addr == "" || src.Coord != nil {
		w.Info = src
	}
	return w
}

// evictIdlestWindow drops the receive window that has been silent longest,
// the lowest source address among equals.
func evictIdlestWindow(gs *groupState) {
	var victim string
	var oldest time.Time
	for addr, w := range gs.recv {
		if victim == "" || w.LastActive.Before(oldest) || w.LastActive.Equal(oldest) && addr < victim {
			victim, oldest = addr, w.LastActive
		}
	}
	if victim != "" {
		delete(gs.recv, victim)
	}
}

// noteWindow folds one window operation's counters into the node stats.
func (n *Node) noteWindow(res *reliable.ObserveResult) {
	if res.OutOfWindow > 0 {
		atomic.AddUint64(&n.stats.OutOfWindow, uint64(res.OutOfWindow))
	}
	if res.GapsOpened > 0 {
		atomic.AddUint64(&n.stats.GapsDetected, uint64(res.GapsOpened))
	}
	if res.GapsRecovered > 0 {
		atomic.AddUint64(&n.stats.GapsRecovered, uint64(res.GapsRecovered))
	}
	if res.GapsAbandoned > 0 {
		atomic.AddUint64(&n.stats.GapsAbandoned, uint64(res.GapsAbandoned))
	}
}

// handleNack answers a retransmission request from this node's buffers —
// the publish buffer when we are the source, the relay cache otherwise —
// and escalates cache misses one hop closer to the source.
func (n *Node) handleNack(msg wire.Message) {
	if msg.Origin.Addr == "" || msg.NackSource == "" {
		return
	}
	gs := n.groups[msg.GroupID]
	if gs == nil {
		return
	}
	srcInfo := wire.PeerInfo{Addr: msg.NackSource}
	lookup := func(seq uint64) (reliable.Item, bool) { return reliable.Item{}, false }
	if msg.NackSource == n.self.Addr {
		srcInfo = n.self
		if gs.pub != nil {
			lookup = gs.pub.GetItem
		}
	} else if w := gs.recv[msg.NackSource]; w != nil {
		if w.Info.Addr != "" {
			srcInfo = w.Info
		}
		lookup = w.GetItem
	}
	var misses []uint64
	for _, seq := range msg.NackSeqs {
		item, ok := lookup(seq)
		if !ok {
			misses = append(misses, seq)
			continue
		}
		atomic.AddUint64(&n.stats.Retransmits, 1)
		err := n.send(msg.Origin.Addr, wire.Message{
			Type:    wire.TPayload,
			From:    srcInfo,
			GroupID: msg.GroupID,
			Seq:     seq,
			// Mode classifies the retransmission as reliable data on the
			// wire, exempting it from best-effort shedding end to end.
			Mode:  gs.mode,
			Relay: n.self,
			Data:  item.Data,
			// The cached item re-carries the payload's original trace
			// identity, so the recovered hop joins the publisher's trace and
			// the receiver still measures true publish→deliver latency.
			TraceID:   item.TraceID,
			OriginAt:  item.OriginAt,
			RelayedAt: n.now,
		})
		if err == nil && n.tracer != nil {
			n.tracer.Record(trace.Event{
				Time: n.now, Node: n.self.Addr, Kind: trace.KindRetransmit,
				Msg: wire.TPayload.String(), Group: msg.GroupID,
				TraceID: item.TraceID, Seq: seq,
				Source: srcInfo.Addr, Peer: msg.Origin.Addr,
			})
		}
	}
	// A miss escalates one hop toward the source: the link the stream
	// arrived on, else the tree parent, else any other tree link (the
	// stream floods every link, so some neighbour's cache is closer to the
	// source; the TTL bounds the walk). Never bounce it back to the
	// requester or the peer that just asked us. When no tree link is
	// viable — or stale hints have formed a cycle that walks away from the
	// source — the request goes to the source itself, whose send buffer
	// always holds the payload: tree-local caches are the fast path,
	// source unicast the terminus that makes recovery dead-end-free.
	if len(misses) == 0 || msg.TTL <= 1 || msg.NackSource == n.self.Addr {
		return
	}
	blocked := func(a string) bool {
		return a == "" || a == msg.From.Addr || a == msg.Origin.Addr
	}
	var upstream string
	if w := gs.recv[msg.NackSource]; w != nil {
		upstream = w.LastHop
	}
	if blocked(upstream) {
		upstream = gs.parent
	}
	if blocked(upstream) {
		upstream = ""
		for _, a := range forwardTargets(nil, gs, "") {
			if !blocked(a) {
				upstream = a
				break
			}
		}
	}
	if blocked(upstream) {
		upstream = msg.NackSource
	}
	atomic.AddUint64(&n.stats.NacksForwarded, 1)
	err := n.send(upstream, wire.Message{
		Type:       wire.TNack,
		From:       n.self,
		GroupID:    msg.GroupID,
		NackSource: msg.NackSource,
		NackSeqs:   misses,
		Origin:     msg.Origin,
		TTL:        msg.TTL - 1,
		TraceID:    msg.TraceID,
		Hops:       msg.Hops + 1,
		OriginAt:   msg.OriginAt,
		RelayedAt:  n.now,
	})
	if err == nil && n.tracer != nil {
		n.tracer.Record(trace.Event{
			Time: n.now, Node: n.self.Addr, Kind: trace.KindNackFwd,
			Msg: wire.TNack.String(), Group: msg.GroupID,
			TraceID: msg.TraceID, Source: msg.NackSource, Peer: upstream,
			Hop: msg.Hops + 1, N: len(misses),
		})
	}
}

// handleDigest ingests a tree neighbour's per-source high-water marks: any
// advertised sequence this node has not received becomes a gap for the NACK
// sweep. This is the anti-entropy path — it is what recovers a stream's
// trailing losses and bootstraps rejoined members onto in-flight streams.
func (n *Node) handleDigest(msg wire.Message) {
	gs := n.groups[msg.GroupID]
	if gs == nil || gs.mode == wire.BestEffort {
		return
	}
	// The digest sender knows the streams; NACK it until a payload reveals
	// the live relay link.
	n.noteHighWater(msg.GroupID, gs, msg.Digest, msg.From.Addr)
}

// noteHighWater notes advertised high-water marks into the group's receive
// windows, so every sequence not yet received becomes a gap, and releases
// what they unblock. A window with no NACK aim yet aims at hop, when given.
func (n *Node) noteHighWater(gid string, gs *groupState, entries []wire.DigestEntry, hop string) {
	for _, e := range entries {
		if e.Source == "" || e.Source == n.self.Addr || e.High == 0 {
			continue
		}
		w := n.windowFor(gs, wire.PeerInfo{Addr: e.Source})
		if w.LastHop == "" {
			w.LastHop = hop
		}
		var res reliable.ObserveResult
		w.NoteAdvertised(e.High, n.now, &res)
		n.noteWindow(&res)
		n.release(gid, gs, w.Info, 0, res.Deliver)
	}
}

// highWater lists the group's per-source high-water marks, sorted by
// source: every receive window past zero and, with withSelf, this node's
// own publish stream.
func (n *Node) highWater(gs *groupState, withSelf bool) []wire.DigestEntry {
	var out []wire.DigestEntry
	if withSelf && gs.pub != nil && gs.pub.High() > 0 {
		out = append(out, wire.DigestEntry{Source: n.self.Addr, High: gs.pub.High()})
	}
	for src, w := range gs.recv {
		if w.High() > 0 {
			out = append(out, wire.DigestEntry{Source: src, High: w.High()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// nackInterval paces the gap-recovery sweep that turns detected sequence
// gaps into NACKs.
const nackInterval = 40 * time.Millisecond

// nackSweep turns every due sequence gap into a NACK up the arrival link
// (tree parent as fallback). Gaps that exhausted their attempts are
// abandoned here, which in ordered mode may unlock held-back deliveries. It
// walks groups and sources in sorted order, so one seed releases in one
// order and traced NACKs draw their IDs in one order.
func (n *Node) nackSweep() {
	pol := reliable.NackPolicy{
		BaseDelay:   nackInterval,
		MaxDelay:    time.Second,
		MaxAttempts: reliable.DefaultNackMaxAttempts,
		MaxBatch:    reliable.DefaultNackBatch,
	}
	for _, gid := range n.groupIDs() {
		gs := n.groups[gid]
		if gs.mode == wire.BestEffort {
			continue
		}
		for _, srcAddr := range sortedKeys(gs.recv) {
			w := gs.recv[srcAddr]
			var res reliable.ObserveResult
			due := w.DueGaps(n.now, pol, &res)
			n.noteWindow(&res)
			n.release(gid, gs, w.Info, 0, res.Deliver)
			if len(due) == 0 {
				continue
			}
			target := w.LastHop
			if target == "" {
				target = gs.parent
			}
			if target == "" {
				// No tree hint at all (e.g. the root learned of the stream
				// only through digests): ask the source directly.
				target = srcAddr
			}
			var traceID uint64
			if n.tracer != nil {
				// A NACK and its escalation chain form their own trace.
				traceID = n.nextMsgID()
			}
			atomic.AddUint64(&n.stats.NacksSent, 1)
			err := n.send(target, wire.Message{
				Type:       wire.TNack,
				From:       n.self,
				GroupID:    gid,
				NackSource: srcAddr,
				NackSeqs:   due,
				Origin:     n.self,
				TTL:        reliable.DefaultNackTTL,
				TraceID:    traceID,
				OriginAt:   n.now,
				RelayedAt:  n.now,
			})
			if err == nil && n.tracer != nil {
				n.tracer.Record(trace.Event{
					Time: n.now, Node: n.self.Addr, Kind: trace.KindNack,
					Msg: wire.TNack.String(), Group: gid,
					TraceID: traceID, Source: srcAddr,
					Peer: target, N: len(due),
				})
			}
		}
	}
}

// digestGroups sends this node's per-source high-water digest over every
// tree link of every reliable-mode group, and evicts receive windows that
// have been idle past the seen TTL.
func (n *Node) digestGroups() {
	for _, gid := range n.groupIDs() {
		gs := n.groups[gid]
		if gs.mode == wire.BestEffort {
			continue
		}
		for srcAddr, w := range gs.recv {
			if n.now.Sub(w.LastActive) > reliable.DefaultSeenTTL {
				delete(gs.recv, srcAddr)
			}
		}
		entries := n.highWater(gs, true)
		if len(entries) == 0 {
			continue
		}
		msg := wire.Message{
			Type:    wire.TDigest,
			From:    n.self,
			GroupID: gid,
			Mode:    gs.mode,
			Digest:  entries,
		}
		for _, addr := range forwardTargets(nil, gs, "") {
			_ = n.send(addr, msg)
		}
	}
}
