package node

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"groupcast/internal/core"
	"groupcast/internal/reliable"
	"groupcast/internal/wire"
)

// run is the node's event loop, the one goroutine Start launches and the
// owner of the node's state. Each event — an inbound message, an API call's
// body, a timer wake — is stamped with one read of the clock, run by step,
// and closed by endEvent, which hands what it released to the handler
// goroutine. So code on the loop never locks, never reads the clock and
// never waits: whatever needs a reply, a backoff or its next period is an
// entry in the call table (calls.go). The first event is begin.
func (n *Node) run() {
	defer n.done.Done()
	defer close(n.exited)
	defer n.timer.Stop()
	now := time.Now // the loop's one clock, read once per event
	at := func(ev event) {
		n.step(now(), ev)
		n.endEvent()
	}
	at(event{flow: n.begin})
	var msg wire.Message // every inbound event's message (see receive)
	for {
		select {
		case <-n.inbox.Doorbell():
			// Each message is its own event, but only those queued at the
			// wake are taken before the next select, and a due timer or a
			// waiting API call goes between two of them.
			for k := n.inbox.Depth(); k > 0 && n.receive(now(), &msg); k-- {
				select {
				case <-n.timer.C:
					at(event{})
				default:
				}
				select {
				case f := <-n.posts:
					at(event{flow: f})
				default:
				}
			}
		case f := <-n.posts:
			at(event{flow: f})
		case <-n.timer.C:
			at(event{})
		case <-n.stop:
			return
		}
	}
}

// event is one loop input: an inbound message, a posted body, or — with
// neither set — a wake of the call table's timer.
type event struct {
	msg  *wire.Message
	flow func()
}

// stamp moves n.now to now; the node's clock never runs backwards.
func (n *Node) stamp(now time.Time) {
	if now.After(n.now) {
		n.now = now
	}
}

// receive pops the next queued message into *msg and runs it as one event
// at now, reporting false when the inbox is empty. The loop pops every
// message into the same variable, so the event owns *msg only until it
// returns: whatever keeps any part of it past the event copies that part.
func (n *Node) receive(now time.Time, msg *wire.Message) bool {
	if !n.inbox.Pop(msg) {
		return false
	}
	n.step(now, event{msg: msg})
	n.endEvent()
	return true
}

// step runs one loop event at time now. Tests call it with synthetic times
// on a node they never started.
func (n *Node) step(now time.Time, ev event) {
	n.stamp(now)
	switch {
	case ev.msg != nil:
		n.handle(ev.msg)
	case ev.flow != nil:
		ev.flow()
	default:
		n.fireDue()
	}
}

// begin anchors the node's timed state at its start: a reloaded state's
// clocks restart (a held charter must re-observe beacon silence before
// promoting, a seeded window counts idleness from here), the node enters
// its own fleet view, and the standing duties are armed. Each re-arms one
// period after it runs: the NACK sweep, the pressure sample and, with
// heartbeats on, the heartbeat epoch, the advertisement refresh, the state
// save and the DHT upkeep.
func (n *Node) begin() {
	if st := n.recovered; st != nil {
		for _, g := range st.Groups {
			if gs := n.groups[g.GroupID]; gs != nil {
				gs.lastBeacon, gs.lastRoot = n.now, n.now
				for _, w := range gs.recv {
					w.LastActive = n.now
				}
			}
		}
	}
	if ts := n.telemetry; ts != nil {
		ts.fleet.Observe(wire.HealthDigest{Addr: n.self.Addr}, n.now, 0)
	}
	n.every(nackInterval, n.nackSweep)
	n.every(n.cfg.OverloadSampleInterval, func() { n.overloadTick(n.samplePressure()) })
	hb := n.cfg.HeartbeatInterval
	if hb <= 0 {
		return
	}
	last := n.now
	n.every(hb, func() {
		// Stall detection: when this wake came well past the interval
		// (scheduler pressure, suspended VM, a slow handler), neighbours
		// never had a fair chance to answer — skip eviction this round
		// rather than shatter the overlay on a false positive.
		stalled := n.now.Sub(last) > 2*hb
		last = n.now
		n.epochNow.Add(1)
		// Telemetry samples before the heartbeats go out so this epoch's
		// piggyback carries the fresh digest.
		n.telemetryEpoch()
		n.epoch(stalled)
		n.dhtEpoch()
		n.digestGroups()
	})
	if k := n.cfg.AdvertiseRefreshEpochs; k > 0 {
		n.every(time.Duration(k)*hb, n.refreshAdvertisements)
	}
	if n.cfg.StatePath != "" {
		// The write is loop work too, one fsync'd rename per save, so a
		// save lands in the epoch that took it, in virtual time as well.
		n.every(stateSaveEpochs*hb, n.saveState)
	}
	n.dhtDuties()
}

// delivery is one payload a loop event released to the application.
type delivery struct {
	gid  string
	src  wire.PeerInfo
	hops int
	reliable.Delivery
}

// release queues what a receive window of gs released for the handler when
// this node is a member. endEvent hands the queue over after the event, so
// everything the event sends — a relay's forwards included — goes out first.
func (n *Node) release(gid string, gs *groupState, src wire.PeerInfo, hops int, ds []reliable.Delivery) {
	if !gs.member {
		return
	}
	for _, d := range ds {
		n.released = append(n.released, delivery{gid, src, hops, d})
	}
}

// endEvent closes a loop event: it hands the payloads the event released to
// the handler goroutine, in release order, or drops them while no handler
// is set. On a driven node the cluster runs the handler inline instead.
func (n *Node) endEvent() {
	if len(n.released) == 0 {
		return
	}
	if n.vt != nil {
		n.vt.deliver(n)
		return
	}
	if n.out != nil {
		n.out.push(n.released, n.handler)
	}
	clear(n.released) // drop the payload references
	n.released = n.released[:0]
}

// handoff is the one FIFO between the loop and the handler goroutine, and
// its mutex the only one in the node. It is unbounded: it grows only while
// the handler is slower than the stream.
type handoff struct {
	mu      sync.Mutex
	queue   []delivery
	handler PayloadHandler
	bell    chan struct{} // capacity 1
	depth   atomic.Int64  // handed off, not yet handled
}

// push appends ds, installs h and wakes the goroutine; a nil h ends it.
func (q *handoff) push(ds []delivery, h PayloadHandler) {
	q.mu.Lock()
	q.queue = append(q.queue, ds...)
	q.handler = h
	q.mu.Unlock()
	q.depth.Add(int64(len(ds)))
	select {
	case q.bell <- struct{}{}:
	default:
	}
}

// deliver is the handler goroutine: it calls the handler for each delivery
// handed off through q, one at a time in release order, counts it and ends
// its publish→deliver age, until the handler is removed or the node closes.
func (n *Node) deliver(q *handoff) {
	defer n.done.Done()
	var batch []delivery
	for {
		select {
		case <-q.bell:
		case <-n.stop:
			return
		}
		q.mu.Lock()
		batch, q.queue = q.queue, batch[:0]
		h := q.handler
		q.mu.Unlock()
		if h == nil {
			return
		}
		for i := range batch {
			select {
			case <-n.stop:
				return
			default:
			}
			d := &batch[i]
			atomic.AddUint64(&n.stats.Delivered, 1)
			n.observeDeliver(time.Now(), d)
			h(d.gid, d.src, d.Data)
			q.depth.Add(-1)
			*d = delivery{} // drop the payload reference
		}
	}
}

// tracedTypes marks the message types worth a recv trace event: the data
// plane and the group control plane. Heartbeats, probes, and connection
// setup are traffic, not protocol actions, and would drown the ring.
var tracedTypes = map[wire.Type]bool{
	wire.TPayload:   true,
	wire.TAdvertise: true,
	wire.TJoin:      true,
	wire.TJoinAck:   true,
	wire.TSearch:    true,
	wire.TSearchHit: true,
	wire.TNack:      true,
	wire.TDigest:    true,
}

func (n *Node) handle(msg *wire.Message) {
	tickType(&n.stats.received, msg.Type)
	// Per-hop relay latency: the sending event's stamp to this one's (queue
	// + wire in one number).
	if msg.Type == wire.TPayload && !msg.RelayedAt.IsZero() {
		if d := n.now.Sub(msg.RelayedAt); d > 0 {
			n.metrics.relayHop.ObserveDurationMs(float64(d) / float64(time.Millisecond))
		}
	}
	n.dispatch(msg)
	if n.tracer != nil && tracedTypes[msg.Type] {
		n.traceRecv(msg, n.traceNow().Sub(n.now))
	}
}

func (n *Node) dispatch(msg *wire.Message) {
	switch msg.Type {
	case wire.TProbe:
		n.handleProbe(*msg)
	case wire.TProbeResp, wire.TSearchHit, wire.TJoinAck:
		n.answer(*msg)
	case wire.TConnect:
		n.addNeighbor(msg.From)
	case wire.TBackConnect:
		n.handleBackConnect(*msg)
	case wire.TBackAccept:
		// Every accept links, a late one too; the waiting bootstrap (if
		// still there) then learns it has a neighbour.
		n.addNeighbor(msg.From)
		n.answer(*msg)
	case wire.THeartbeat:
		n.touchNeighbor(msg.From)
		n.dhtObserve(msg.From)
		n.observeHealth(*msg)
		// The ack gossips health back so digests spread both ways on every
		// heartbeat exchange.
		health := n.telemetryHealth()
		_ = n.send(msg.From.Addr, wire.Message{
			Type: wire.THeartbeatAck, From: n.self, SentAt: msg.SentAt, Health: health,
		})
		n.countHealthSent(len(health), 1)
	case wire.THeartbeatAck:
		n.touchNeighbor(msg.From)
		n.dhtObserve(msg.From)
		n.observeHealth(*msg)
		if !msg.SentAt.IsZero() {
			rttMs := float64(n.now.Sub(msg.SentAt)) / float64(time.Millisecond)
			n.metrics.heartbeatRTT.ObserveDurationMs(rttMs)
			n.observeRTT(msg.From, rttMs)
		}
	case wire.TAdvertise:
		n.handleAdvertise(*msg)
	case wire.TJoin:
		n.handleJoin(*msg)
	case wire.TSearch:
		n.handleSearch(*msg)
	case wire.TPayload:
		n.handlePayload(msg)
	case wire.TBeacon:
		n.observeHealth(*msg)
		n.handleBeacon(*msg)
	case wire.TTelemetry:
		// Standalone digest exchange (tools and tests; the node itself
		// piggybacks on heartbeats and beacons instead).
		n.observeHealth(*msg)
	case wire.TNack:
		n.handleNack(*msg)
	case wire.TDigest:
		n.handleDigest(*msg)
	case wire.TLeave:
		n.handleLeave(*msg)
	case wire.THandoff:
		n.handleHandoff(*msg)
	case wire.TDhtFindNode:
		n.handleDhtFindNode(*msg)
	case wire.TDhtFindValue:
		n.handleDhtFindValue(*msg)
	case wire.TDhtStore:
		n.handleDhtStore(*msg)
	case wire.TDhtFindNodeResp, wire.TDhtFindValueResp, wire.TDhtStoreAck:
		// Every DHT reply is liveness evidence for the routing table; the
		// waiting lookup (if still there) gets the message itself.
		n.dhtObserve(msg.From)
		n.answer(*msg)
	}
}

func (n *Node) handleProbe(msg wire.Message) {
	nbrs := make([]wire.PeerInfo, 0, len(n.neighbors)+1)
	nbrs = append(nbrs, n.self)
	for _, addr := range sortedKeys(n.neighbors) {
		// Don't recommend suspect neighbours to bootstrapping peers: they
		// missed a heartbeat and may already be dead.
		if nb := n.neighbors[addr]; !nb.suspect {
			nbrs = append(nbrs, nb.info)
		}
	}
	_ = n.send(msg.From.Addr, wire.Message{
		Type:      wire.TProbeResp,
		From:      n.self,
		ReqID:     msg.ReqID,
		Neighbors: nbrs,
	})
}

// handleBackConnect applies the back-link rule of Section 3.3
// (core.AcceptBackLink) to a connection request.
func (n *Node) handleBackConnect(msg wire.Message) {
	nbrCands := make([]core.Candidate, 0, len(n.neighbors))
	for _, nb := range n.neighbors {
		if nb.info.Addr == msg.From.Addr {
			continue
		}
		nbrCands = append(nbrCands, n.candidate(nb.info))
	}
	if !core.AcceptBackLink(n.cfg.Capacity, n.candidate(msg.From), nbrCands, n.cfg.FallbackAccept, n.rng) {
		return
	}
	n.addNeighbor(msg.From)
	_ = n.send(msg.From.Addr, wire.Message{Type: wire.TBackAccept, From: n.self, ReqID: msg.ReqID})
}

func (n *Node) touchNeighbor(info wire.PeerInfo) {
	if nb, ok := n.neighbors[info.Addr]; ok {
		nb.info = info
		nb.lastAck = n.now
		nb.suspect = false
	}
}

func (n *Node) handleLeave(msg wire.Message) {
	if msg.GroupID == "" {
		// Overlay departure: drop the neighbour everywhere.
		n.rejoinAsync(n.removeNeighborAndOrphans(msg.From.Addr))
		return
	}
	// Group-scoped departure: the sender left one group only.
	gs := n.groups[msg.GroupID]
	if gs == nil {
		return
	}
	delete(gs.children, msg.From.Addr)
	clearLastHop(gs, msg.From.Addr)
	if gs.parent == msg.From.Addr {
		gs.parent = ""
		if gs.member && !gs.rendezvous {
			n.rejoinAsync([]string{msg.GroupID})
		}
	}
}

// reprobe sends one extra heartbeat to each of addrs that is still suspect:
// a lost heartbeat (or ack) must not cost a whole epoch of detection latency.
func (n *Node) reprobe(addrs []string) {
	for _, addr := range addrs {
		if nb, ok := n.neighbors[addr]; ok && nb.suspect {
			_ = n.send(addr, wire.Message{Type: wire.THeartbeat, From: n.self, SentAt: n.now})
		}
	}
}

// refreshAdvertisements re-floods every group this node is the rendezvous
// of, giving peers that joined the overlay after the original announcement a
// reverse path.
func (n *Node) refreshAdvertisements() {
	for _, gid := range n.groupIDs() {
		if n.groups[gid].rendezvous {
			_ = n.advertise(gid)
		}
	}
}

// epoch implements the epoch maintenance: heartbeat every neighbour, declare
// neighbours dead after MissedHeartbeatsToFail silent epochs, and re-join any
// groups orphaned by a dead parent.
func (n *Node) epoch(stalled bool) {
	grace := time.Duration(n.cfg.MissedHeartbeatsToFail+1) * n.cfg.HeartbeatInterval
	// A neighbour becomes suspect after one silent epoch (plus slack for
	// ack latency); it is re-probed mid-epoch and recommended to nobody
	// until it answers, and declared dead at the full grace.
	suspectAfter := n.cfg.HeartbeatInterval + n.cfg.HeartbeatInterval/2
	health := n.telemetryHealth()
	var orphaned, newlySuspect []string
	live := 0
	// Address order: a dead neighbour's removal rescues its DHT records,
	// taking MsgIDs.
	for _, addr := range sortedKeys(n.neighbors) {
		nb := n.neighbors[addr]
		switch {
		case !stalled && n.now.Sub(nb.lastAck) > grace:
			atomic.AddUint64(&n.stats.NeighborsDeclaredDead, 1)
			orphaned = append(orphaned, n.removeNeighborAndOrphans(addr)...)
			continue
		case !stalled && n.now.Sub(nb.lastAck) > suspectAfter && !nb.suspect:
			nb.suspect = true
			newlySuspect = append(newlySuspect, addr)
		}
		_ = n.send(addr, wire.Message{Type: wire.THeartbeat, From: n.self, SentAt: n.now, Health: health})
		live++
	}
	n.countHealthSent(len(health), live)
	if live == 0 && len(n.lost) > 0 && !n.rebooting {
		// No neighbour left (a partition outlived the death grace): join the
		// overlay again through the neighbours this node lost, or no ripple
		// search or beacon can reach it.
		n.rebooting = true
		n.bootstrap(n.lost, n.cfg.HeartbeatInterval, func(error) { n.rebooting = false })
	}
	if len(newlySuspect) > 0 {
		// Suspects get one extra probe half an epoch later (see reprobe).
		atomic.AddUint64(&n.stats.Suspected, uint64(len(newlySuspect)))
		n.duty(n.cfg.HeartbeatInterval/2, func() { n.reprobe(newlySuspect) })
	}
	// Succession duty: promote out of any charter whose root has been
	// beacon-silent past this deputy's staggered delay. Runs before the
	// stale-beacon sweep below so a first deputy takes over cleanly rather
	// than racing every member's detach-and-search.
	n.successionSweep()

	// Rendezvous duty: beacon every group we root, down the tree.
	n.beaconGroups()

	// Retry any group that is still detached — or whose rendezvous beacon
	// went stale (severed subtree, parent cycle): a stale node detaches and
	// reattaches through peers that still hear the rendezvous. Dangling
	// forwarders (a lost parent above a subtree we relay for) must reattach
	// too, or their whole subtree stays severed.
	bGrace := n.beaconGrace()
	var detachedForwarders []string
	for _, gid := range n.groupIDs() {
		gs := n.groups[gid]
		if gs.rendezvous {
			continue
		}
		if gs.parent != "" && bGrace > 0 && n.now.Sub(gs.lastBeacon) > bGrace {
			// Prune our edge at the stale parent so it stops forwarding to us.
			_ = n.send(gs.parent, wire.Message{Type: wire.TLeave, From: n.self, GroupID: gid})
			clearLastHop(gs, gs.parent)
			gs.parent = ""
		}
		if gs.parent != "" {
			continue
		}
		if gs.member {
			orphaned = append(orphaned, gid)
		} else if len(gs.children) > 0 {
			detachedForwarders = append(detachedForwarders, gid)
		}
	}
	// Sort the orphans of every dead neighbour and every detached group into
	// one order, as each repair draws its backoff jitter from the seeded rng
	// in turn.
	sort.Strings(orphaned)
	n.rejoinAsync(orphaned)
	n.reattachAsync(detachedForwarders)
}

// beaconGroups floods a fresh rendezvous beacon down every group this node
// roots. Each child's beacon carries its backup access points (siblings —
// tree nodes guaranteed outside the child's subtree). Groups and children go
// in sorted order, so one seed sends one sequence.
func (n *Node) beaconGroups() {
	health := n.telemetryHealth()
	var beacons, charters int
	for _, gid := range n.groupIDs() {
		gs := n.groups[gid]
		if !gs.rendezvous || len(gs.children) == 0 {
			continue
		}
		// Succession plane: recompute the charter each beacon epoch (roster
		// and high-water marks drift with churn and traffic) and attach it to
		// the deputies' beacons only; everyone else still learns the epoch
		// and the roster so any member can tell who inherits.
		var charter wire.Charter
		roster := map[string]bool{}
		if n.cfg.Deputies > 0 {
			charter = n.charterFor(gid, gs)
			gs.deputies = charter.Deputies
			for _, d := range charter.Deputies {
				roster[d.Addr] = true
			}
		}
		for _, addr := range sortedKeys(gs.children) {
			info := gs.children[addr]
			msg := wire.Message{
				Type:     wire.TBeacon,
				From:     n.self,
				GroupID:  gid,
				Path:     []string{n.self.Addr},
				Mode:     gs.mode,
				Backups:  n.backupsForChild(gs, info),
				Epoch:    gs.epoch,
				Deputies: charter.Deputies,
				Health:   health,
			}
			if roster[addr] {
				msg.Charter = charter
				charters++
			}
			_ = n.send(addr, msg)
			beacons++
		}
	}
	if charters > 0 {
		atomic.AddUint64(&n.stats.CharterReplications, uint64(charters))
	}
	n.countHealthSent(len(health), beacons)
}

// attachTimeout bounds one attachment pass that no Join's deadline bounds:
// a repair's search-based join, or a forwarder's for the joins it holds.
const attachTimeout = 2 * time.Second

// reattachAsync repairs dangling forwarder uplinks without asserting
// membership.
func (n *Node) reattachAsync(groupIDs []string) { n.repairAsync(groupIDs, false) }

// rejoinAsync re-subscribes orphaned groups without blocking the caller. At
// most one attempt per group is in flight at a time.
func (n *Node) rejoinAsync(groupIDs []string) { n.repairAsync(groupIDs, true) }

// repairAsync starts a repair for each given group that has none in flight.
// Each repair tries the precomputed backup access points first (live
// failover), then falls back to search-based joins with exponential
// backoff; the epoch loop retriggers any group still detached afterwards.
func (n *Node) repairAsync(groupIDs []string, asMember bool) {
	for _, gid := range groupIDs {
		if n.rejoining[gid] {
			continue
		}
		n.rejoining[gid] = true
		n.repairAttachment(gid, asMember, func() { delete(n.rejoining, gid) })
	}
}

// repairAttachment runs one repair for a detached group — backup failover
// first, then retried search-based joins — and calls done when it ends.
func (n *Node) repairAttachment(gid string, asMember bool, done func()) {
	if n.attached(gid) {
		done()
		return
	}
	n.tryBackups(gid, asMember, func(err error) {
		if err == nil {
			atomic.AddUint64(&n.stats.RepairsViaBackup, 1)
			done()
			return
		}
		n.retry(true, func(i int, fail func()) {
			if i > 0 && n.attached(gid) {
				done()
				return
			}
			n.joinInternal(gid, attachTimeout, asMember, func(err error) {
				if err != nil {
					fail()
					return
				}
				atomic.AddUint64(&n.stats.RepairsViaSearch, 1)
				done()
			})
		}, done)
	})
}
