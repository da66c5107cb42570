package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// seqRecorder tallies delivered payload indices per source, in arrival order.
type seqRecorder struct {
	mu   sync.Mutex
	seqs map[string][]int
}

func recordPayloads(nd *Node) *seqRecorder {
	rec := &seqRecorder{seqs: make(map[string][]int)}
	nd.SetPayloadHandler(func(_ string, from wire.PeerInfo, data []byte) {
		var idx int
		if _, err := fmt.Sscanf(string(data), "p%d", &idx); err != nil {
			return
		}
		rec.mu.Lock()
		rec.seqs[from.Addr] = append(rec.seqs[from.Addr], idx)
		rec.mu.Unlock()
	})
	return rec
}

func (r *seqRecorder) count(src string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seqs[src])
}

// assertFIFO requires the recorder to have delivered exactly 0..n-1 from src
// in publish order.
func (r *seqRecorder) assertFIFO(t *testing.T, who, src string, n int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	got := r.seqs[src]
	if len(got) != n {
		t.Fatalf("%s delivered %d payloads from %s, want %d: %v", who, len(got), src, n, got)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("%s source %s: delivery %d has index %d (not FIFO): %v", who, src, i, idx, got)
		}
	}
}

// holdsCharter reports whether the node is an armed deputy for the group.
func holdsCharter(nd *Node, gid string) (armed bool) {
	nd.post(func() {
		gs := nd.groups[gid]
		armed = gs != nil && gs.charter.Epoch > 0
	})
	return armed
}

// singleRoot returns the unique rendezvous among nodes, or nil if there is
// not exactly one.
func singleRoot(nodes []*Node, gid string) *Node {
	var root *Node
	for _, nd := range nodes {
		if nd.Tree(gid).Rendezvous {
			if root != nil {
				return nil
			}
			root = nd
		}
	}
	return root
}

// TestRootCrashPromotesDeputy is the tentpole chaos test: the rendezvous of a
// reliable-ordered group is crash-stopped mid-stream. A charter-holding
// deputy must promote itself within the staggered suspicion bound, the
// survivors must reattach under it, and every payload — published before,
// during, and after the outage — must reach every survivor in FIFO order.
func TestRootCrashPromotesDeputy(t *testing.T) {
	const (
		gid      = "g"
		perPhase = 10
		nNodes   = 7
	)
	c := newDriven(t, nNodes, 31, func(cfg *Config) {
		cfg.AdvertiseRefreshEpochs = 2
	})
	rdv := c.nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}
	c.Run(150 * time.Millisecond)
	for i, nd := range c.nodes[1:] {
		if err := nd.Join(gid, testTimeout); err != nil {
			t.Fatalf("join node %d: %v", i+1, err)
		}
	}
	survivors := c.nodes[1:]
	recs := make([]*seqRecorder, len(survivors))
	for i, nd := range survivors {
		recs[i] = recordPayloads(nd)
	}

	// Beacons must have replicated the charter to at least one deputy before
	// the crash, or there is nobody to succeed.
	c.waitFor(t, 5*time.Second, func() bool {
		for _, nd := range survivors {
			if holdsCharter(nd, gid) {
				return true
			}
		}
		return false
	}, static("no deputy ever received the charter"))

	pub := survivors[0]
	pubAddr := pub.Addr()
	publish := func(from, to int) {
		for i := from; i < to; i++ {
			// Mid-outage sends may fail outright (all links dead) — the
			// payloads stay in the send buffer and anti-entropy recovers them.
			_ = pub.Publish(gid, []byte(fmt.Sprintf("p%d", i)))
			c.Run(5 * time.Millisecond)
		}
	}

	publish(0, perPhase)
	crashAt := c.Now()
	c.chaos.Crash(rdv.Addr())
	publish(perPhase, 2*perPhase)

	var promotedAfter time.Duration
	c.waitFor(t, 10*time.Second, func() bool {
		for _, nd := range survivors {
			if nd.Tree(gid).Rendezvous {
				if promotedAfter == 0 {
					promotedAfter = c.Now().Sub(crashAt)
				}
				return true
			}
		}
		return false
	}, static("no deputy promoted after the root crash"))
	// The first deputy fires after SuspectEpochs silent epochs; the
	// acceptance bound is SuspectEpochs+2 epochs, plus the slack the bound
	// kept from its wall-clock days (virtual time does not skid).
	interval := 100 * time.Millisecond
	if bound := time.Duration(SuspectEpochs+2)*interval + 8*interval; promotedAfter > bound {
		t.Fatalf("promotion took %v, want <= %v (SuspectEpochs+2 epochs plus slack)", promotedAfter, bound)
	}

	// Every survivor reattaches under the one new root.
	c.waitFor(t, 15*time.Second, func() bool {
		root := singleRoot(survivors, gid)
		if root == nil {
			return false
		}
		for _, nd := range survivors {
			tv := nd.Tree(gid)
			if !tv.Attached || tv.Parent == rdv.Addr() {
				return false
			}
		}
		return true
	}, static("survivors never converged under a single new root"))

	publish(2*perPhase, 3*perPhase)

	// 100% delivery in FIFO order across the outage.
	for i, nd := range survivors {
		if nd == pub {
			continue
		}
		i, nd := i, nd
		c.waitFor(t, 30*time.Second, func() bool {
			return recs[i].count(pubAddr) >= 3*perPhase
		}, func() string { return fmt.Sprintf("survivor %s never recovered the full stream", nd.Addr()) })
		recs[i].assertFIFO(t, nd.Addr(), pubAddr, 3*perPhase)
	}

	var promotions uint64
	for _, nd := range survivors {
		promotions += nd.Stats().Promotions
	}
	if promotions == 0 {
		t.Fatal("no promotion was counted")
	}
}

// TestRootLeavePromotesImmediately pins the graceful path: Leave at the
// rendezvous hands the charter to the first deputy, which promotes with no
// suspect delay and keeps the group alive.
func TestRootLeavePromotesImmediately(t *testing.T) {
	const gid = "g"
	c := newDriven(t, 5, 17, func(cfg *Config) {
		cfg.AdvertiseRefreshEpochs = 2
	})
	rdv := c.nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}
	c.Run(150 * time.Millisecond)
	for i, nd := range c.nodes[1:] {
		if err := nd.Join(gid, testTimeout); err != nil {
			t.Fatalf("join node %d: %v", i+1, err)
		}
	}
	survivors := c.nodes[1:]
	c.waitFor(t, 5*time.Second, func() bool {
		return len(rdv.Tree(gid).Deputies) > 0
	}, static("rendezvous never ranked a deputy roster"))

	leftAt := c.Now()
	if err := rdv.Leave(gid); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 5*time.Second, func() bool {
		return singleRoot(survivors, gid) != nil
	}, static("no deputy promoted after the graceful leave"))
	// The handoff is one message, not a timeout: promotion must beat the
	// crash path's suspect delay by a wide margin.
	if took := c.Now().Sub(leftAt); took > 2*time.Second {
		t.Fatalf("graceful handoff took %v, expected immediate promotion", took)
	}

	// The departed root may legitimately reappear as a pure *forwarder* (it
	// is still an overlay node, and joins travel reverse advertisement
	// paths), so the convergence condition is: one promoted root among the
	// survivors, everyone attached, and the old root not rendezvous again.
	c.waitFor(t, 15*time.Second, func() bool {
		root := singleRoot(survivors, gid)
		if root == nil || rdv.Tree(gid).Rendezvous {
			return false
		}
		for _, nd := range survivors {
			if !nd.Tree(gid).Attached {
				return false
			}
		}
		return true
	}, static("survivors never reattached after the handoff"))

	// The inherited group still delivers.
	recs := make([]*seqRecorder, len(survivors))
	for i, nd := range survivors {
		recs[i] = recordPayloads(nd)
	}
	pub := survivors[0]
	c.waitFor(t, 10*time.Second, func() bool {
		_ = pub.Publish(gid, []byte("p0"))
		c.Run(50 * time.Millisecond)
		for i, nd := range survivors {
			if nd == pub {
				continue
			}
			if recs[i].count(pub.Addr()) == 0 {
				return false
			}
		}
		return true
	}, static("inherited group does not deliver"))
}

// TestSplitBrainHeal partitions a reliable-ordered group so the side without
// the root elects a successor, lets both sides publish through the split, and
// heals. Epoch comparison must collapse the two roots back to one (the lower
// lineage demotes and re-joins) and digest anti-entropy must deliver both
// sides' streams — 100%, FIFO — to every member.
func TestSplitBrainHeal(t *testing.T) {
	const (
		gid      = "g"
		perSide  = 8
		nNodes   = 8
		interval = 100 * time.Millisecond
	)
	c := newDriven(t, nNodes, 23, func(cfg *Config) {
		cfg.AdvertiseRefreshEpochs = 2
		// The split must outlive the group's suspicion threshold (3 beacon
		// epochs) but not the overlay's death grace: if cross-partition
		// neighbours are declared dead there is no link left after Heal for
		// the two roots to hear each other over. The grace must cover the
		// whole split — up to the pre-heal convergence waits' tens of
		// seconds — so it is effectively infinite here. Suspect state still kicks
		// in at 1.5 epochs, so the failure detector is exercised, not
		// bypassed.
		cfg.MissedHeartbeatsToFail = 1 << 20
	})
	rdv := c.nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}
	c.Run(150 * time.Millisecond)
	for i, nd := range c.nodes[1:] {
		if err := nd.Join(gid, testTimeout); err != nil {
			t.Fatalf("join node %d: %v", i+1, err)
		}
	}
	recs := make(map[string]*seqRecorder, nNodes)
	for _, nd := range c.nodes {
		recs[nd.Addr()] = recordPayloads(nd)
	}

	// The split must leave a charter-holding deputy on the rootless side.
	var deputy *Node
	c.waitFor(t, 5*time.Second, func() bool {
		for _, nd := range c.nodes[1:] {
			if holdsCharter(nd, gid) {
				deputy = nd
				return true
			}
		}
		return false
	}, static("no deputy ever received the charter"))

	// Island A: the old root plus half the members, excluding the deputy.
	// Everyone else (the deputy's side) becomes island B.
	sideA := []*Node{rdv}
	var sideB []*Node
	for _, nd := range c.nodes[1:] {
		if nd != deputy && len(sideA) < nNodes/2 {
			sideA = append(sideA, nd)
		} else {
			sideB = append(sideB, nd)
		}
	}
	addrsA := make([]string, len(sideA))
	for i, nd := range sideA {
		addrsA[i] = nd.Addr()
	}
	c.chaos.Partition(addrsA...)

	// Side B elects the deputy (the only charter holder) as its root.
	c.waitFor(t, 10*time.Second, func() bool { return singleRoot(sideB, gid) != nil },
		static("the rootless side never elected a successor"))

	// Each island first repairs into a whole tree under its own root: a
	// member whose parent landed across the split is an orphan until it
	// re-attaches, and a payload published while it still NACKs toward that
	// unreachable parent can exhaust its recovery attempts for good.
	c.waitFor(t, 20*time.Second, func() bool {
		return treeSettled(sideA, gid, sideA) && treeSettled(sideB, gid, sideB)
	}, func() string {
		msg := "an island never repaired into a whole tree under its own root:"
		for _, nd := range c.nodes {
			tv := nd.Tree(gid)
			msg += fmt.Sprintf("\n  %s rdv=%v attached=%v parent=%q children=%v epoch=%d",
				nd.Addr(), tv.Rendezvous, tv.Attached, tv.Parent, tv.Children, tv.Epoch)
		}
		return fmt.Sprintf("%s\n  side A = %v", msg, addrsA)
	})

	// Both halves publish through the split.
	pubA, pubB := rdv, deputy
	for i := 0; i < perSide; i++ {
		_ = pubA.Publish(gid, []byte(fmt.Sprintf("p%d", i)))
		_ = pubB.Publish(gid, []byte(fmt.Sprintf("p%d", i)))
		c.Run(5 * time.Millisecond)
	}
	// Each side converges on its own half first, so the heal starts from two
	// internally consistent trees.
	sideDone := func(side []*Node, pub *Node) func() bool {
		return func() bool {
			for _, nd := range side {
				if nd == pub {
					continue
				}
				if recs[nd.Addr()].count(pub.Addr()) < perSide {
					return false
				}
			}
			return true
		}
	}
	// The horizon is the one this wait had on the wall clock, where NACK
	// recovery under full-suite load could take well over the quiet norm.
	c.waitFor(t, 45*time.Second, sideDone(sideA, pubA), static("side A never converged on its own stream"))
	c.waitFor(t, 45*time.Second, sideDone(sideB, pubB), static("side B never converged on its own stream"))

	c.chaos.Heal()

	// Epoch comparison collapses the two roots: the old root (epoch 1) hears
	// the successor's epoch-2 advertisement, demotes, and re-joins.
	converged := func() bool {
		root := singleRoot(c.nodes, gid)
		if root == nil {
			return false
		}
		for _, nd := range c.nodes {
			if !nd.Tree(gid).Attached {
				return false
			}
		}
		return true
	}
	c.waitFor(t, 20*time.Second, converged, func() string {
		for _, nd := range c.nodes {
			tv := nd.Tree(gid)
			t.Logf("node %s: rdv=%v attached=%v parent=%q epoch=%d deputies=%v",
				nd.Addr(), tv.Rendezvous, tv.Attached, tv.Parent, tv.Epoch, tv.Deputies)
		}
		return "the healed partition never converged on a single root"
	})
	if rdv.Tree(gid).Rendezvous {
		t.Fatal("the lower-epoch root kept the group after the heal")
	}
	if rdv.Stats().Demotions == 0 {
		t.Fatal("the losing root never counted its demotion")
	}

	// Reconciliation: every member ends with both full streams, in order.
	for _, nd := range c.nodes {
		nd := nd
		rec := recs[nd.Addr()]
		for _, pub := range []*Node{pubA, pubB} {
			if nd == pub {
				continue
			}
			pubAddr := pub.Addr()
			c.waitFor(t, 30*time.Second, func() bool {
				return rec.count(pubAddr) >= perSide
			}, func() string { return fmt.Sprintf("%s never reconciled the stream from %s", nd.Addr(), pubAddr) })
			rec.assertFIFO(t, nd.Addr(), pubAddr, perSide)
		}
	}
}
