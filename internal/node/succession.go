package node

import (
	"sync/atomic"
	"time"

	"groupcast/internal/core"
	"groupcast/internal/protocol"
	"groupcast/internal/wire"
)

// This file is the live half of rendezvous succession (internal/protocol
// holds the pure rules): the rendezvous replicates its group charter — mode,
// succession epoch, ordered deputy roster, per-source high-water marks — to
// its k highest-utility children on beacons. When beacons stop, deputy #i
// waits SuspectEpochs+i silent epochs (protocol.SuccessionDelayEpochs) and
// then promotes itself: it adopts epoch+1, seeds its receive windows from
// the replicated high-water marks (so digest anti-entropy pulls publishes in
// flight at the crash), re-advertises the group, and absorbs orphaned
// subtrees through the ordinary rejoin/backup machinery. Conflicting roots
// after a partition heal are resolved by protocol.CompareRoots on the epoch
// carried by advertisements: the losing root demotes and re-joins.

// SuspectEpochs is the shared suspicion threshold of the succession
// stagger: deputy #i promotes after SuspectEpochs+i beacon-silent epochs.
const SuspectEpochs = 3

// addrsOf projects a peer list to its addresses (the roster key space of the
// pure succession rules).
func addrsOf(peers []wire.PeerInfo) []string {
	out := make([]string, len(peers))
	for i, p := range peers {
		out[i] = p.Addr
	}
	return out
}

// charterFor assembles the group's current charter at its rendezvous: the
// deputy roster is protocol.DeputyRoster over the children, at the r̂ they
// give, and the high-water marks snapshot every known source's sequence
// frontier.
func (n *Node) charterFor(gid string, gs *groupState) wire.Charter {
	ch := wire.Charter{GroupID: gid, Mode: gs.mode, Epoch: gs.epoch}
	if n.cfg.Deputies > 0 && len(gs.children) > 0 {
		ids := sortedKeys(gs.children)
		cands := make([]core.Candidate, len(ids))
		for i, addr := range ids {
			cands[i] = n.candidate(gs.children[addr])
		}
		for _, idx := range protocol.DeputyRoster(core.ResourceLevel(n.cfg.Capacity, cands), cands, ids, n.cfg.Deputies) {
			ch.Deputies = append(ch.Deputies, gs.children[ids[idx]])
		}
	}
	if gs.mode != wire.BestEffort {
		ch.HighWater = n.highWater(gs, true)
	}
	return ch
}

// successionSweep runs once per maintenance epoch: any group this node holds
// a charter for whose root has been silent past this deputy's staggered
// delay promotes. The deputy-index stagger makes the first live deputy win
// deterministically without an election round trip.
func (n *Node) successionSweep() {
	if n.cfg.Deputies <= 0 || n.cfg.HeartbeatInterval <= 0 {
		return
	}
	for _, gid := range n.groupIDs() {
		gs := n.groups[gid]
		if gs.rendezvous || gs.charter.Epoch == 0 || gs.lastRoot.IsZero() {
			continue
		}
		idx := protocol.DeputyIndex(addrsOf(gs.charter.Deputies), n.self.Addr)
		delay := protocol.SuccessionDelayEpochs(SuspectEpochs, idx)
		if delay < 0 {
			continue
		}
		if silent := n.now.Sub(gs.lastRoot); silent > time.Duration(delay)*n.cfg.HeartbeatInterval {
			n.promoteSelf(gid, silent)
		}
	}
}

// promoteSelf makes this node the group's rendezvous from the charter it
// holds: epoch+1, receive windows seeded from the replicated high-water
// marks, and an immediate re-advertisement so orphans find the new root.
// silentFor is the observed root outage (zero on a graceful handoff); it
// feeds the succession time-to-recover histogram.
func (n *Node) promoteSelf(gid string, silentFor time.Duration) {
	gs := n.groups[gid]
	if gs == nil || gs.rendezvous || gs.charter.Epoch == 0 {
		return
	}
	newEpoch := protocol.NextRootEpoch(gs.charter.Epoch)
	// Last-moment veto: a strictly better root claim already advertised
	// itself (another deputy won across a partition, or the old root is
	// back with a fresher lineage). Stand down and re-arm the clock.
	if ad, ok := n.adSeen[gid]; ok && ad.rendezvous.Addr != "" && ad.rendezvous.Addr != n.self.Addr &&
		protocol.CompareRoots(ad.epoch, ad.rendezvous.Addr, newEpoch, n.self.Addr) > 0 {
		gs.lastRoot = n.now
		gs.rdvInfo = ad.rendezvous
		return
	}
	oldParent := gs.parent
	charter := gs.charter
	gs.rendezvous = true
	gs.member = true
	gs.promoted = true
	gs.parent = ""
	gs.parentInfo = wire.PeerInfo{}
	gs.epoch = newEpoch
	gs.rdvInfo = n.self
	gs.rootPath = []string{}
	gs.charter = wire.Charter{}
	gs.deputies = nil
	gs.lastRoot = time.Time{}
	// Seed receive windows from the replicated frontier: any sequence the
	// dead root had seen that we have not becomes a gap, and the normal
	// NACK/digest path recovers it from surviving caches or the source.
	n.noteHighWater(gid, gs, charter.HighWater, "")
	n.adSeen[gid] = adState{rendezvous: n.self, mode: gs.mode, epoch: newEpoch}

	atomic.AddUint64(&n.stats.Promotions, 1)
	n.metrics.successionTTR.ObserveDurationMs(float64(silentFor) / float64(time.Millisecond))
	if oldParent != "" {
		// Prune our child edge at whoever we hung under (the dead root, or a
		// sibling a panicked repair reattached us to).
		_ = n.send(oldParent, wire.Message{Type: wire.TLeave, From: n.self, GroupID: gid})
	}
	// Re-advertise from the new root: orphaned subtrees learn the fresh
	// reverse paths, and the epoch on the flood demotes any lower-priority
	// root after a partition heal.
	_ = n.advertise(gid)
	// Republish the charter record under the bumped epoch so DHT joiners
	// resolve to this root; the replicas' epoch guards now reject the dead
	// root's stale record (and any republish it might wake up with).
	n.dhtRepublishAsync(gid)
}

// handleHandoff promotes this node immediately on the departing root's
// explicit charter hand-over — the graceful-leave path, no suspect delay.
func (n *Node) handleHandoff(msg wire.Message) {
	if msg.GroupID == "" || msg.Charter.Epoch == 0 {
		return
	}
	gs := n.groups[msg.GroupID]
	if gs == nil || gs.rendezvous {
		return
	}
	gs.charter = msg.Charter
	if gs.parent == msg.From.Addr {
		// The root is leaving; don't wait for its TLeave to clear the edge.
		gs.parent = ""
		gs.parentInfo = wire.PeerInfo{}
	}
	n.promoteSelf(msg.GroupID, 0)
}

// clearLastHop forgets NACK aim hints through a departed peer so gap
// recovery re-aims at the tree parent or the source instead of a dead relay.
func clearLastHop(gs *groupState, addr string) {
	for _, w := range gs.recv {
		if w.LastHop == addr {
			w.LastHop = ""
		}
	}
}
