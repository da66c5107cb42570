package node

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"groupcast/internal/core"
	"groupcast/internal/dht"
	"groupcast/internal/protocol"
	"groupcast/internal/reliable"
	"groupcast/internal/trace"
	"groupcast/internal/wire"
)

// Protocol TTLs, fixed by the paper.
const (
	// advertiseTTL is the SSA announcement flood depth (paper: 7).
	advertiseTTL = 7
	// searchTTL is the subscription ripple search depth (paper: 2).
	searchTTL = 2
)

// newGroupState allocates the per-group bookkeeping.
func newGroupState(mode wire.DeliveryMode) *groupState {
	return &groupState{
		mode:     mode,
		children: make(map[string]wire.PeerInfo),
		recv:     make(map[string]*reliable.SourceWindow),
	}
}

// CreateGroup makes this node the rendezvous point (and first member) of a
// new best-effort communication group.
func (n *Node) CreateGroup(groupID string) error {
	return n.CreateGroupMode(groupID, wire.BestEffort)
}

// CreateGroupMode makes this node the rendezvous point of a new group with
// an explicit delivery mode. The mode is a group property: members inherit
// it from this rendezvous via advertisements, join acks, and beacons.
func (n *Node) CreateGroupMode(groupID string, mode wire.DeliveryMode) (err error) {
	n.post(func() {
		if err = n.runnable(); err != nil {
			return
		}
		if _, dup := n.groups[groupID]; dup {
			err = fmt.Errorf("node: group %q already exists here", groupID)
			return
		}
		gs := newGroupState(mode)
		gs.rendezvous = true
		gs.member = true
		gs.rdvInfo = n.self
		gs.rootPath = []string{}
		gs.epoch = 1 // succession epoch: the creating root's lineage starts at 1
		n.groups[groupID] = gs
		n.adSeen[groupID] = adState{upstream: "", rendezvous: n.self, mode: mode, epoch: 1}
		// Seed the discovery plane: the charter record replicates to the k
		// closest nodes so joiners resolve the group in O(log N) without
		// waiting for an advertisement flood to reach them.
		n.dhtRepublishAsync(groupID)
	})
	return err
}

// Advertise floods the group's SSA announcement from this rendezvous point.
func (n *Node) Advertise(groupID string) (err error) {
	n.post(func() {
		if err = n.runnable(); err == nil {
			err = n.advertise(groupID)
		}
	})
	return err
}

// advertise is Advertise's body, shared with the loop's refresh and
// promotion paths.
func (n *Node) advertise(groupID string) error {
	gs := n.groups[groupID]
	if gs == nil || !gs.rendezvous {
		return fmt.Errorf("%w: %q (only the rendezvous advertises)", ErrNoGroup, groupID)
	}
	msgID := n.nextMsgID()
	n.seenAds.Seen(msgID, n.now)
	n.forwardAdvertisement(wire.Message{
		Type:       wire.TAdvertise,
		From:       n.self,
		GroupID:    groupID,
		Rendezvous: n.self,
		TTL:        advertiseTTL,
		MsgID:      msgID,
		Mode:       gs.mode,
		Epoch:      gs.epoch,
		// The flood's MsgID doubles as its trace ID: every relayed copy
		// carries it, so one announcement is one trace.
		TraceID:  msgID,
		OriginAt: n.now,
	}, "")
	return nil
}

// handleAdvertise records the reverse path and forwards the announcement to
// a utility-selected fraction of neighbours (SSA).
func (n *Node) handleAdvertise(msg wire.Message) {
	if n.seenAds.Seen(msg.MsgID, n.now) {
		atomic.AddUint64(&n.stats.DuplicatesDropped, 1)
		return
	}
	// Partition-heal reconciliation: if we are this group's rendezvous and a
	// strictly higher-priority root (higher succession epoch; lower address
	// on a tie) is advertising, we lost the lineage race — demote and re-join
	// under the winner. Digest anti-entropy then reconciles what each side
	// published during the split.
	demoted := false
	if gs := n.groups[msg.GroupID]; gs != nil && gs.rendezvous &&
		msg.Rendezvous.Addr != "" && msg.Rendezvous.Addr != n.self.Addr &&
		protocol.CompareRoots(msg.Epoch, msg.Rendezvous.Addr, gs.epoch, n.self.Addr) > 0 {
		demoted = true
		gs.rendezvous = false
		gs.promoted = false
		gs.epoch = msg.Epoch
		gs.rdvInfo = msg.Rendezvous
		gs.charter = wire.Charter{}
		gs.deputies = nil
		gs.lastRoot = time.Time{}
		gs.lastBeacon = n.now // grace until the winner's first beacon
		atomic.AddUint64(&n.stats.Demotions, 1)
	}
	ad, known := n.adSeen[msg.GroupID]
	if !known || msg.Epoch > ad.epoch || demoted {
		n.adSeen[msg.GroupID] = adState{
			upstream: msg.From.Addr, rendezvous: msg.Rendezvous,
			mode: msg.Mode, epoch: msg.Epoch,
		}
	}
	if demoted {
		n.rejoinAsync([]string{msg.GroupID})
	}
	if msg.TTL <= 1 {
		return
	}
	fwd := msg
	fwd.From = n.self
	fwd.TTL = msg.TTL - 1
	fwd.Hops = msg.Hops + 1
	n.forwardAdvertisement(fwd, msg.From.Addr)
}

// forwardAdvertisement sends the announcement to the neighbours the SSA
// rule picks (core.SelectForwarders), at the r̂ its neighbours give.
func (n *Node) forwardAdvertisement(msg wire.Message, upstream string) {
	var nbrs []wire.PeerInfo
	for _, nb := range n.neighbors {
		if nb.info.Addr != upstream {
			nbrs = append(nbrs, nb.info)
		}
	}
	if len(nbrs) == 0 {
		return
	}
	// Selection draws from the seeded rng in candidate order, so the order
	// must not be map order.
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].Addr < nbrs[j].Addr })
	cands := make([]core.Candidate, len(nbrs))
	for i, info := range nbrs {
		cands[i] = n.candidate(info)
	}
	targets := nbrs
	idxs, err := core.SelectForwarders(core.ResourceLevel(n.cfg.Capacity, cands), cands, n.cfg.AdvertiseFraction, n.rng)
	if err == nil {
		targets = make([]wire.PeerInfo, len(idxs))
		for i, idx := range idxs {
			targets[i] = nbrs[idx]
		}
	}
	msg.RelayedAt = n.now
	for _, info := range targets {
		_ = n.send(info.Addr, msg)
	}
}

// Join subscribes this node to a group: along the reverse advertisement
// path when the announcement was received, otherwise through a TTL-scoped
// ripple search for an access point. It blocks up to timeout for the search.
func (n *Node) Join(groupID string, timeout time.Duration) error {
	return n.await(func(done func(error)) {
		if err := n.runnable(); err != nil {
			done(err)
			return
		}
		n.joinInternal(groupID, timeout, true, done)
	})
}

// joinInternal attaches this node to the group tree and reports through
// done. With asMember it (re)asserts membership; without, it only repairs a
// dangling forwarder's uplink, leaving membership untouched.
func (n *Node) joinInternal(groupID string, timeout time.Duration, asMember bool, done func(error)) {
	gs := n.groups[groupID]
	if gs != nil && (gs.rendezvous || gs.parent != "") {
		// Already on the tree (member or forwarder): (re)assert membership.
		// An orphaned node — on the tree record-wise but with no parent —
		// falls through and reattaches instead.
		if asMember {
			gs.member = true
		}
		done(nil)
		return
	}
	ad, sawAd := n.adSeen[groupID]

	switch {
	case sawAd && ad.upstream == "":
		// We are the rendezvous (handled above) or the ad record is local.
		done(nil)
	case sawAd:
		n.joinVia(groupID, ad.upstream, ad.rendezvous, ad.mode, timeout, asMember, func(err error) {
			if err == nil {
				done(nil)
				return
			}
			// The advertisement's reverse path is dead — its upstream crashed
			// or sits across a partition. Fall through to discovery rather
			// than replaying the same hop on every repair: an orphan whose
			// upstream is unreachable would otherwise never re-attach, even
			// with the rendezvous among its own neighbours.
			n.joinDiscover(groupID, timeout, asMember, done)
		})
	default:
		n.joinDiscover(groupID, timeout, asMember, done)
	}
}

// joinDiscover is the join past the advertisement path. Structured
// discovery first: resolve the group's charter record through the DHT and
// join at its rendezvous — O(log N) messages against the ripple flood's
// O(N). A miss (young record not yet replicated, churned replicas) falls
// back to the ripple search.
func (n *Node) joinDiscover(groupID string, timeout time.Duration, asMember bool, done func(error)) {
	if n.dht == nil {
		n.joinSearch(groupID, timeout, asMember, done)
		return
	}
	fallback := func() {
		atomic.AddUint64(&n.stats.DhtFallbacks, 1)
		n.joinSearch(groupID, timeout, asMember, done)
	}
	n.dhtResolve(groupID, func(rec dht.Record, ok bool) {
		if !ok {
			fallback()
			return
		}
		n.joinVia(groupID, rec.Rendezvous.Addr, rec.Rendezvous, rec.Mode, timeout, asMember, func(err error) {
			if err == nil {
				done(nil)
				return
			}
			// The record's rendezvous would not have us — most often a
			// corpse cached across a succession. Purge it so the next
			// attempt resolves through the network (where the new root's
			// higher-epoch record wins) instead of replaying the cache
			// until the TTL clears it.
			n.dht.store.Delete(dht.KeyID(groupID))
			fallback()
		})
	})
}

// joinSearch floods a ripple search for an access point to every neighbour
// and joins through the first hit outside this node's own subtree.
func (n *Node) joinSearch(groupID string, timeout time.Duration, asMember bool, done func(error)) {
	msgID := n.nextMsgID()
	search := wire.Message{
		Type:     wire.TSearch,
		From:     n.self,
		GroupID:  groupID,
		TTL:      searchTTL,
		Origin:   n.self,
		MsgID:    msgID,
		TraceID:  msgID,
		OriginAt: n.now,
	}
	n.seenAds.Seen(msgID, n.now) // don't answer our own search
	n.ask(sortedKeys(n.neighbors), search, timeout,
		func(hit wire.Message) bool {
			// Refuse access points inside our own subtree: their root path
			// would run through us and re-attaching would orphan the group
			// into a cycle. Keep waiting for another hit.
			if pathContains(hit.Path, n.self.Addr) {
				return false
			}
			n.joinVia(groupID, hit.From.Addr, hit.Rendezvous, hit.Mode, timeout, asMember, done)
			return true
		},
		func() {
			done(fmt.Errorf("%w: %q (no access point within TTL %d)",
				ErrJoinFailed, groupID, searchTTL))
		})
}

// beaconGrace is how long a node trusts its tree attachment without hearing
// a rendezvous beacon.
func (n *Node) beaconGrace() time.Duration {
	if n.cfg.HeartbeatInterval <= 0 {
		return 0 // maintenance disabled: beacons aren't flowing, trust joins
	}
	return time.Duration(n.cfg.BeaconGraceEpochs) * n.cfg.HeartbeatInterval
}

// onTree reports whether the node currently considers itself attached to
// the group tree with a live path to the rendezvous (fresh beacon, or within
// the post-join grace window).
func (n *Node) onTree(gs *groupState) bool {
	if gs == nil {
		return false
	}
	if gs.rendezvous {
		return true
	}
	if gs.parent == "" {
		return false
	}
	grace := n.beaconGrace()
	if grace <= 0 {
		return true
	}
	return n.now.Sub(gs.lastBeacon) <= grace
}

// handleBeacon refreshes the node's root path and liveness from its parent's
// beacon and floods it to the children. Beacons from a stale parent (one we
// no longer hang under) are answered with a group-scoped leave so the sender
// prunes its dead child edge.
func (n *Node) handleBeacon(msg wire.Message) {
	// Forwarded beacons re-gossip THIS node's health view, not the parent's
	// slice, so each tree hop contributes its own round-robin pick.
	health := n.telemetryHealth()
	gs := n.groups[msg.GroupID]
	if gs == nil || gs.rendezvous || gs.parent != msg.From.Addr {
		if msg.From.Addr != "" {
			_ = n.send(msg.From.Addr, wire.Message{
				Type: wire.TLeave, From: n.self, GroupID: msg.GroupID,
			})
		}
		return
	}
	// A beacon whose path already contains us signals a parent cycle —
	// detach immediately; the epoch retry reattaches cleanly.
	if pathContains(msg.Path, n.self.Addr) {
		gs.parent = ""
		gs.lastBeacon = time.Time{}
		return
	}
	gs.rootPath = append([]string(nil), msg.Path...)
	gs.lastBeacon = n.now
	gs.lastRoot = n.now // the succession clock: a beacon proves the root
	gs.parentInfo = msg.From
	gs.mode = msg.Mode // rendezvous-authoritative, carried down the tree
	gs.backups = append([]wire.PeerInfo(nil), msg.Backups...)
	if msg.Epoch > 0 {
		gs.epoch = msg.Epoch
	}
	gs.deputies = append([]wire.PeerInfo(nil), msg.Deputies...)
	if msg.Charter.Epoch > 0 {
		// The root replicated its charter to us: we are a deputy, armed to
		// promote if beacons stop.
		gs.charter = msg.Charter
	} else if gs.charter.Epoch > 0 && protocol.DeputyIndex(addrsOf(msg.Deputies), n.self.Addr) < 0 {
		// We fell off the roster (utility churn); disarm the stale charter so
		// an ex-deputy doesn't fire a rogue promotion later.
		gs.charter = wire.Charter{}
	}
	downPath := append(append([]string(nil), msg.Path...), n.self.Addr)
	for _, addr := range sortedKeys(gs.children) {
		info := gs.children[addr]
		_ = n.send(addr, wire.Message{
			Type:    wire.TBeacon,
			From:    n.self,
			GroupID: msg.GroupID,
			Path:    downPath,
			Mode:    gs.mode,
			Backups: n.backupsForChild(gs, info),
			// Epoch and roster ride the whole tree so every member can
			// tell which lineage it follows and who inherits; the charter
			// itself stays on the root→deputy hop.
			Epoch:    gs.epoch,
			Deputies: gs.deputies,
			Health:   health,
		})
	}
	n.countHealthSent(len(health), len(gs.children))
}

func pathContains(path []string, addr string) bool {
	for _, p := range path {
		if p == addr {
			return true
		}
	}
	return false
}

// joinVia sets parent, sends the join upstream, and waits for the immediate
// parent's acknowledgement so the tree edge exists before the caller
// publishes. A join that timed out is retried (fresh correlation ID each
// attempt, the budget split evenly across attempts) so a single lost join or
// ack doesn't fail the attachment; a join whose send failed at once is not,
// since a retry in the same instant would fail the same way. On final
// failure the tentative parent edge is rolled back so the epoch loop sees
// the group as detached.
func (n *Node) joinVia(groupID, parentAddr string, rdv wire.PeerInfo, mode wire.DeliveryMode, timeout time.Duration, asMember bool, done func(error)) {
	gs := n.groups[groupID]
	if gs == nil {
		gs = newGroupState(mode)
		n.groups[groupID] = gs
	}
	if asMember {
		gs.member = true
	}
	gs.parent = parentAddr
	gs.parentInfo = wire.PeerInfo{Addr: parentAddr}
	gs.rdvInfo = rdv
	mode = gs.mode

	// rollback drops the tentative edge (unless a competing join already
	// moved the group elsewhere) so this group reads as detached, not wedged
	// under a dead parent.
	rollback := func() {
		if gs.parent == parentAddr {
			gs.parent = ""
			gs.parentInfo = wire.PeerInfo{}
		}
	}
	attemptWait := timeout / retryAttempts
	if attemptWait < 10*time.Millisecond {
		attemptWait = 10 * time.Millisecond
	}
	giveUp := func() {
		rollback()
		done(fmt.Errorf("%w: %q (parent %s did not acknowledge)",
			ErrJoinFailed, groupID, parentAddr))
	}
	n.retry(false, func(_ int, fail func()) {
		var traceID uint64
		if n.tracer != nil {
			traceID = n.nextMsgID()
		}
		join := wire.Message{
			Type:       wire.TJoin,
			From:       n.self,
			GroupID:    groupID,
			Subscriber: n.self,
			Rendezvous: rdv,
			Mode:       mode,
			TraceID:    traceID,
			OriginAt:   n.now,
			RelayedAt:  n.now,
		}
		sending := true
		n.ask([]string{parentAddr}, join, attemptWait,
			func(ack wire.Message) bool {
				// An ack whose root path runs through us means we picked a
				// parent inside our own subtree: accepting it would close a
				// cycle. Roll back and tell the parent to drop the edge.
				if pathContains(ack.Path, n.self.Addr) {
					rollback()
					_ = n.send(parentAddr, wire.Message{
						Type: wire.TLeave, From: n.self, GroupID: groupID,
					})
					done(fmt.Errorf("%w: %q (access point %s is inside our subtree)",
						ErrJoinFailed, groupID, parentAddr))
					return true
				}
				gs.lastBeacon = n.now // grace until the first beacon arrives
				done(nil)
				return true
			}, func() {
				if sending {
					// ask gave up before it returned: the send failed.
					giveUp()
					return
				}
				fail()
			})
		sending = false
	}, giveUp)
}

// handleJoin makes the sender a tree child and, if this node is not yet on
// the tree, continues the join along its own reverse advertisement path
// (becoming a forwarder).
func (n *Node) handleJoin(msg wire.Message) {
	gs := n.groups[msg.GroupID]
	if gs == nil {
		gs = newGroupState(msg.Mode)
		gs.rdvInfo = msg.Rendezvous
		n.groups[msg.GroupID] = gs
	}
	if _, had := gs.children[msg.From.Addr]; !had && gs.rendezvous && gs.promoted {
		// A subtree orphaned by the old root's death found us: the heal is
		// converging.
		atomic.AddUint64(&n.stats.OrphansReabsorbed, 1)
	}
	gs.children[msg.From.Addr] = msg.From
	onTree := gs.rendezvous || gs.parent != ""
	var upstream string
	if !onTree {
		if ad, ok := n.adSeen[msg.GroupID]; ok && ad.upstream != "" {
			upstream = ad.upstream
			gs.parent = upstream
			gs.parentInfo = wire.PeerInfo{Addr: upstream}
		}
	}
	if msg.ReqID != 0 {
		_ = n.send(msg.From.Addr, wire.Message{
			Type:    wire.TJoinAck,
			From:    n.self,
			GroupID: msg.GroupID,
			ReqID:   msg.ReqID,
			Path:    ownPath(gs, n.self.Addr),
			Mode:    gs.mode,
			Backups: n.backupsForChild(gs, msg.From),
			// Echo the join's trace ID so the ack belongs to the same trace.
			TraceID:   msg.TraceID,
			RelayedAt: n.now,
		})
	}
	if upstream != "" {
		// Forwarded joins request an ack too (fresh correlation ID that no
		// call waits on) so this forwarder learns its root path.
		_ = n.send(upstream, wire.Message{
			Type:       wire.TJoin,
			From:       n.self,
			GroupID:    msg.GroupID,
			Subscriber: msg.Subscriber,
			Rendezvous: msg.Rendezvous,
			Mode:       msg.Mode,
			ReqID:      n.nextMsgID(),
			TraceID:    msg.TraceID,
			Hops:       msg.Hops + 1,
			OriginAt:   msg.OriginAt,
			RelayedAt:  n.now,
		})
	}
}

// ownPath returns the node's path to the rendezvous including itself (self
// last): rootPath + self.
func ownPath(gs *groupState, selfAddr string) []string {
	out := make([]string, 0, len(gs.rootPath)+1)
	out = append(out, gs.rootPath...)
	return append(out, selfAddr)
}

// handleJoinAck refreshes the node's root path, parent identity, and backup
// access points from its parent's ack (the waiting join, if any, gets the
// ack separately through the call table).
func (n *Node) handleJoinAck(msg wire.Message) {
	gs := n.groups[msg.GroupID]
	if gs == nil || gs.parent != msg.From.Addr {
		return
	}
	gs.rootPath = append([]string(nil), msg.Path...)
	gs.parentInfo = msg.From
	gs.mode = msg.Mode // the parent's view is closer to the rendezvous
	if len(msg.Backups) > 0 {
		gs.backups = append([]wire.PeerInfo(nil), msg.Backups...)
	}
}

// handleSearch answers when this node can serve as an access point and
// otherwise floods the query within its TTL.
func (n *Node) handleSearch(msg wire.Message) {
	if n.seenAds.Seen(msg.MsgID, n.now) {
		return
	}
	gs := n.groups[msg.GroupID]
	ad, sawAd := n.adSeen[msg.GroupID]
	onTree := n.onTree(gs)
	rdv := ad.rendezvous
	mode := ad.mode
	if gs != nil {
		rdv = gs.rdvInfo
		mode = gs.mode
	}

	if onTree || sawAd {
		var path []string
		if onTree {
			path = ownPath(gs, n.self.Addr)
		}
		_ = n.send(msg.Origin.Addr, wire.Message{
			Type:       wire.TSearchHit,
			From:       n.self,
			GroupID:    msg.GroupID,
			ReqID:      msg.ReqID,
			Rendezvous: rdv,
			Mode:       mode,
			Path:       path,
			TraceID:    msg.TraceID,
			Hops:       msg.Hops,
			RelayedAt:  n.now,
		})
		return
	}
	if msg.TTL <= 1 {
		return
	}
	fwd := msg
	fwd.From = n.self
	fwd.TTL = msg.TTL - 1
	fwd.Hops = msg.Hops + 1
	fwd.RelayedAt = n.now
	for _, addr := range sortedKeys(n.neighbors) {
		if addr != msg.From.Addr {
			_ = n.send(addr, fwd)
		}
	}
}

// Publish sends a payload to the group over its spanning tree, stamped with
// this publisher's next per-group sequence number. The caller must be a
// member. Publish reports ErrPublishFailed when the node has tree links but
// every send failed immediately (e.g. all links point at crashed or
// partitioned peers) — the payload reached no one.
func (n *Node) Publish(groupID string, data []byte) (err error) {
	n.post(func() {
		if err = n.runnable(); err != nil {
			return
		}
		gs := n.groups[groupID]
		if gs == nil || !gs.member {
			err = fmt.Errorf("%w: %q", ErrNotMember, groupID)
			return
		}
		// Admission control: while the node is degraded, refuse new
		// best-effort publishes at the edge instead of feeding them into
		// saturated queues. Reliable publishes are always admitted — the
		// caller asked for delivery guarantees, and the reliable plane has
		// its own recovery machinery.
		if gs.mode == wire.BestEffort && n.overload.degraded {
			atomic.AddUint64(&n.stats.PublishRejects, 1)
			err = fmt.Errorf("%w: %q", ErrBackpressure, groupID)
			return
		}
		msg := wire.Message{
			Type: wire.TPayload, From: n.self, Relay: n.self, GroupID: groupID,
			Mode: gs.mode, Data: data, OriginAt: n.now, RelayedAt: n.now,
		}
		if n.tracer != nil {
			msg.TraceID = n.nextMsgID()
		}
		if gs.pub == nil {
			gs.pub = reliable.NewSendBuffer(reliable.DefaultCachePayloads)
		}
		msg.Seq = gs.pub.NextItem(reliable.Item{Data: data, TraceID: msg.TraceID, OriginAt: msg.OriginAt})
		n.fwd = forwardTargets(n.fwd[:0], gs, "")
		targets := n.fwd
		if n.tracer != nil {
			n.tracer.Record(trace.Event{
				Time: msg.OriginAt, Node: n.self.Addr, Kind: trace.KindPublish,
				Msg: msg.Type.String(), Group: groupID,
				TraceID: msg.TraceID, Seq: msg.Seq, Source: n.self.Addr, N: len(targets),
			})
		}
		if sent := n.fanOut(targets, &msg); len(targets) > 0 && sent == 0 {
			err = fmt.Errorf("%w: %q (%d link(s), 0 reachable)",
				ErrPublishFailed, groupID, len(targets))
		}
	})
	return err
}

// handlePayload runs the payload through the per-source receive window
// (dedup, gap detection, ordering), forwards fresh payloads over the
// remaining tree edges, and releases what the window lets go to the handler
// when this node is a member.
func (n *Node) handlePayload(msg wire.Message) {
	hop := msg.Relay.Addr
	if hop == "" {
		hop = msg.From.Addr
	}
	gs := n.groups[msg.GroupID]
	if gs == nil || msg.From.Addr == n.self.Addr {
		return
	}
	w := n.windowFor(gs, msg.From)
	_, fromChild := gs.children[hop]
	if w.LastHop == "" || hop == gs.parent || fromChild {
		// Only a current tree link may (re)aim the NACK direction: a
		// retransmission arrives directly from whichever cache answered, and
		// letting it hijack LastHop can point two neighbours' recovery at
		// each other, away from the source.
		w.LastHop = hop
	}
	res := reliable.ObserveResult{Deliver: n.delivered[:0]}
	w.ObserveItem(msg.Seq, reliable.Item{
		Data: msg.Data, TraceID: msg.TraceID, OriginAt: msg.OriginAt,
	}, n.now, &res)
	n.noteWindow(&res)
	if !res.Fresh {
		atomic.AddUint64(&n.stats.DuplicatesDropped, 1)
	}
	// Gap-recovery round trips: detection → recovering arrival.
	for _, rtt := range res.RecoveredAfter {
		n.metrics.nackRTT.ObserveDurationMs(float64(rtt) / float64(time.Millisecond))
	}
	n.release(msg.GroupID, gs, msg.From, msg.Hops, res.Deliver)
	clear(res.Deliver) // release copied them; drop the payload references
	n.delivered = res.Deliver[:0]
	if !res.Fresh {
		return
	}
	n.fwd = forwardTargets(n.fwd[:0], gs, hop)
	targets := n.fwd
	// Graceful degradation: while overloaded, shed best-effort payload relay
	// — the loss-tolerant fan-out — but never reliable or control traffic,
	// and never local delivery (released above). Downstream best-effort
	// subscribers lose what they were promised they might lose.
	if gs.mode == wire.BestEffort && len(targets) > 0 && n.overload.degraded {
		atomic.AddUint64(&n.stats.RelaySheds, 1)
		return
	}
	fwd := msg
	fwd.Relay = n.self
	fwd.Hops = msg.Hops + 1
	fwd.RelayedAt = n.now
	n.fanOut(targets, &fwd)
}

// fanOut sends payload msg over every target link and returns how many sends
// the transport accepted, tracing each at msg.RelayedAt, the event's stamp,
// with the time from the fan-out's start to the transport's report.
func (n *Node) fanOut(targets []string, msg *wire.Message) (sent int) {
	var start time.Time
	if n.tracer != nil {
		start = n.traceNow()
	}
	n.sendMany(targets, msg)
	for _, l := range n.links {
		if l.err != nil {
			continue
		}
		sent++
		if n.tracer != nil {
			n.tracer.Record(trace.Event{
				Time: msg.RelayedAt, Node: msg.Relay.Addr, Kind: trace.KindSend,
				Msg: msg.Type.String(), Group: msg.GroupID,
				TraceID: msg.TraceID, Seq: msg.Seq, Source: msg.From.Addr,
				Peer: l.addr, Hop: msg.Hops,
				SendUS: l.at.Sub(start).Microseconds(),
			})
		}
	}
	return sent
}

// traceNow reads the clock for the tracer's durations (SendUS, HandleUS):
// the wall clock, or a driven node's cluster time. Only code with a tracer
// set calls it.
func (n *Node) traceNow() time.Time {
	if n.vt != nil {
		return n.vt.c.now
	}
	return time.Now()
}

// observeDeliver records one payload hand-off to the application at now:
// the publish→deliver latency histogram (when the publisher stamped an origin
// time) and, when tracing, a deliver event joined to the payload's trace.
func (n *Node) observeDeliver(now time.Time, d *delivery) {
	var ageUS int64
	if !d.OriginAt.IsZero() {
		if age := now.Sub(d.OriginAt); age > 0 {
			ageUS = age.Microseconds()
			n.metrics.publishDeliver.ObserveDurationMs(float64(age) / float64(time.Millisecond))
		}
	}
	if n.tracer == nil {
		return
	}
	n.tracer.Record(trace.Event{
		Time: now, Node: n.self.Addr, Kind: trace.KindDeliver,
		Msg: wire.TPayload.String(), Group: d.gid,
		TraceID: d.TraceID, Seq: d.Seq, Source: d.src.Addr, Hop: d.hops,
		AgeUS: ageUS,
	})
}

// forwardTargets appends to dst the tree links a payload should travel on,
// except the link it arrived over: the parent, then the children in address
// order, so one seed gives one send order.
func forwardTargets(dst []string, gs *groupState, arrivedFrom string) []string {
	if gs.parent != "" && gs.parent != arrivedFrom {
		dst = append(dst, gs.parent)
	}
	kids := len(dst)
	for addr := range gs.children {
		if addr != arrivedFrom {
			dst = append(dst, addr)
		}
	}
	slices.Sort(dst[kids:])
	return dst
}

// Leave departs a group gracefully: children are told to re-join and the
// parent drops this node.
func (n *Node) Leave(groupID string) (err error) {
	n.post(func() { err = n.leave(groupID) })
	return err
}

func (n *Node) leave(groupID string) error {
	if err := n.runnable(); err != nil {
		return err
	}
	gs := n.groups[groupID]
	if gs == nil {
		return fmt.Errorf("%w: %q", ErrNoGroup, groupID)
	}
	// A departing rendezvous must not orphan the group: hand the charter to
	// the first deputy explicitly so it promotes immediately, with no suspect
	// delay and no lost publishes.
	if gs.rendezvous && n.cfg.Deputies > 0 && len(gs.children) > 0 {
		if charter := n.charterFor(groupID, gs); len(charter.Deputies) > 0 {
			_ = n.send(charter.Deputies[0].Addr, wire.Message{
				Type:    wire.THandoff,
				From:    n.self,
				GroupID: groupID,
				Epoch:   gs.epoch,
				Charter: charter,
			})
		}
	}
	delete(n.groups, groupID)
	// Parent and children: every tree link drops this node.
	notice := wire.Message{Type: wire.TLeave, From: n.self, GroupID: groupID}
	for _, addr := range forwardTargets(nil, gs, "") {
		_ = n.send(addr, notice)
	}
	return nil
}

// TreeView is an observational snapshot of one group's tree attachment,
// for tests, experiments, and operational introspection.
type TreeView struct {
	Exists     bool
	Member     bool
	Rendezvous bool
	// Attached reports a live tree position: rendezvous, or a parent the
	// node has not given up on.
	Attached bool
	Parent   string
	Children []string
	// Backups are the addresses of the precomputed backup access points.
	Backups []string
	// Epoch is the group's succession epoch as this node knows it.
	Epoch uint64
	// Deputies is the succession roster last replicated by the root.
	Deputies []string
}

// Tree snapshots the node's attachment state for a group.
func (n *Node) Tree(groupID string) (tv TreeView) {
	n.post(func() {
		gs := n.groups[groupID]
		if gs == nil {
			return
		}
		tv = TreeView{
			Exists:     true,
			Member:     gs.member,
			Rendezvous: gs.rendezvous,
			Attached:   gs.rendezvous || gs.parent != "",
			Parent:     gs.parent,
			Children:   sortedKeys(gs.children),
			Epoch:      gs.epoch,
			Deputies:   addrsOf(gs.deputies),
		}
		for _, b := range gs.backups {
			tv.Backups = append(tv.Backups, b.Addr)
		}
	})
	return tv
}

// Groups lists the groups this node is a member of.
func (n *Node) Groups() (out []string) {
	n.post(func() {
		out = make([]string, 0, len(n.groups))
		for gid, gs := range n.groups {
			if gs.member {
				out = append(out, gid)
			}
		}
	})
	return out
}
