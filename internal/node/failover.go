package node

import (
	"fmt"
	"sort"
	"time"

	"groupcast/internal/wire"
)

// This file is tree repair's backup access points, the dynamic-replication
// extension the paper cites for reliability ([35]): every tree node hands
// each child a few peers guaranteed outside the child's subtree — the
// child's grandparent, its siblings, the rendezvous, and the node's own
// inherited backups — on beacons and join acks. A member whose parent dies
// reattaches through one of them directly (one join message) before falling
// back to the join a Join makes: the reverse advertisement path, the DHT or
// the TTL-scoped ripple search. Every repair takes this one path, and -exp
// resilience measures it.

// backupJoinTimeout bounds one backup access point's join handshake during
// failover; a backup that died in the same burst must not absorb the whole
// repair budget.
const backupJoinTimeout = 500 * time.Millisecond

// backupFanout is how many backup access points a tree node hands each
// child on beacons and join acks.
const backupFanout = 3

// attached reports whether the node currently has a tree attachment for
// the group (rendezvous, or a parent it has not given up on).
func (n *Node) attached(gid string) bool {
	gs := n.groups[gid]
	return gs != nil && (gs.rendezvous || gs.parent != "")
}

// backupsForChild assembles the backup access points a parent hands the
// given child: candidates outside the child's subtree, ranked nearest to the
// child, capped at backupFanout.
func (n *Node) backupsForChild(gs *groupState, child wire.PeerInfo) []wire.PeerInfo {
	cands := make([]wire.PeerInfo, 0, len(gs.children)+len(gs.backups)+2)
	seen := map[string]bool{child.Addr: true, n.self.Addr: true}
	add := func(info wire.PeerInfo) {
		if info.Addr == "" || seen[info.Addr] {
			return
		}
		seen[info.Addr] = true
		cands = append(cands, info)
	}
	// The child's grandparent, then siblings (their subtrees are disjoint
	// from the child's) by address, then our own backups (outside our
	// subtree, hence outside the child's), then the rendezvous as the last
	// resort. The sort below is stable, so this order breaks distance ties.
	add(gs.parentInfo)
	for _, addr := range sortedKeys(gs.children) {
		add(gs.children[addr])
	}
	for _, b := range gs.backups {
		add(b)
	}
	add(gs.rdvInfo)
	sort.SliceStable(cands, func(i, j int) bool {
		return n.dist(child, cands[i]) < n.dist(child, cands[j])
	})
	if len(cands) > backupFanout {
		cands = cands[:backupFanout]
	}
	// The slices feeding cands are owned by the node; copy before the
	// result escapes into a message.
	return append([]wire.PeerInfo(nil), cands...)
}

// tryBackups reattaches a detached group through its precomputed backup
// access points, nearest first, and reports nil through done when one of
// them accepted the join.
func (n *Node) tryBackups(gid string, asMember bool, done func(error)) {
	gs := n.groups[gid]
	if gs == nil || gs.rendezvous || gs.parent != "" || len(gs.backups) == 0 {
		done(fmt.Errorf("node: no usable backups for %q", gid))
		return
	}
	rdv := gs.rdvInfo
	mode := gs.mode
	cands := make([]wire.PeerInfo, 0, len(gs.backups))
	for _, b := range gs.backups {
		if b.Addr == n.self.Addr {
			continue
		}
		if _, isChild := gs.children[b.Addr]; isChild {
			// A direct child is inside our subtree: attaching under it
			// would close a cycle.
			continue
		}
		cands = append(cands, b)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return n.dist(n.self, cands[i]) < n.dist(n.self, cands[j])
	})
	var try func(i int)
	try = func(i int) {
		if i == len(cands) {
			done(fmt.Errorf("node: all %d backup access points failed for %q", len(cands), gid))
			return
		}
		n.joinVia(gid, cands[i].Addr, rdv, mode, backupJoinTimeout, asMember, func(err error) {
			if err == nil {
				done(nil)
				return
			}
			try(i + 1)
		})
	}
	try(0)
}
