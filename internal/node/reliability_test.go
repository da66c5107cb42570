package node

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/reliable"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// lineCluster builds a bootstrap chain a—b—c—… of n nodes through add:
// each node's only contact is its predecessor, so the overlay (and any
// group tree rooted at the first node) is a line.
func lineCluster(t *testing.T, n int, add func(testing.TB, Config, []string) *Node, mutate func(*Config)) []*Node {
	t.Helper()
	var nodes []*Node
	for i := 0; i < n; i++ {
		cfg := DefaultConfig(10, coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 100 * time.Millisecond
		if mutate != nil {
			mutate(&cfg)
		}
		nodes = append(nodes, add(t, cfg, newest(nodes, 1)))
	}
	return nodes
}

// TestReliableOrderedFIFOUnderLoss floods a lossy 6-node line with two
// publishers in reliable-ordered mode and requires every member to deliver
// every payload of both sources in exact publish order — the tentpole
// acceptance property (NACK retransmission plus digest anti-entropy close
// every gap; the ordered release holds payloads back until they fit).
func TestReliableOrderedFIFOUnderLoss(t *testing.T) {
	c := newDriven(t, 0, 7, nil)
	nodes := lineCluster(t, 6, c.add, nil)

	rdv := nodes[0]
	if err := rdv.CreateGroupMode("g", wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	for _, nd := range nodes[1:] {
		if err := nd.Join("g", 3*time.Second); err != nil {
			t.Fatalf("join %s: %v", nd.Addr(), err)
		}
	}

	// Members learn the mode from beacons/acks before payloads flow.
	c.waitFor(t, 3*time.Second, func() bool {
		for _, nd := range nodes[1:] {
			if nd.reliability("g").Mode != wire.ReliableOrdered {
				return false
			}
		}
		return true
	}, static("delivery mode did not propagate to all members"))

	type recorder struct {
		seqs map[string][]int // source addr -> payload indices in arrival order
	}
	recs := make([]*recorder, len(nodes))
	for i, nd := range nodes {
		rec := &recorder{seqs: make(map[string][]int)}
		recs[i] = rec
		nd.SetPayloadHandler(func(_ string, from wire.PeerInfo, data []byte) {
			var idx int
			if _, err := fmt.Sscanf(string(data), "p%d", &idx); err != nil {
				return
			}
			rec.seqs[from.Addr] = append(rec.seqs[from.Addr], idx)
		})
	}

	// 10% loss on every link from here on: joins are done, only the data
	// plane (payloads, NACKs, retransmissions, digests) fights the loss.
	c.chaos.SetDefaultRule(transport.LinkRule{Drop: 0.10})

	const perSource = 30
	pubs := []*Node{rdv, nodes[3]} // rendezvous and a mid-line member
	for i := 0; i < perSource; i++ {
		for _, p := range pubs {
			if err := p.Publish("g", []byte(fmt.Sprintf("p%d", i))); err != nil {
				t.Fatalf("publish %d from %s: %v", i, p.Addr(), err)
			}
		}
		c.Run(5 * time.Millisecond)
	}

	complete := func(rec *recorder, self string) bool {
		for _, p := range pubs {
			if p.Addr() == self {
				continue // publishers don't hear their own stream
			}
			if len(rec.seqs[p.Addr()]) < perSource {
				return false
			}
		}
		return true
	}
	for i, nd := range nodes {
		i, nd := i, nd
		c.waitFor(t, 20*time.Second, func() bool { return complete(recs[i], nd.Addr()) },
			func() string { return fmt.Sprintf("node %d did not recover all payloads", i) })
	}

	// FIFO: each member saw each foreign source's indices exactly 0..N-1.
	for i, nd := range nodes {
		for src, got := range recs[i].seqs {
			if src == nd.Addr() {
				continue
			}
			for j, idx := range got {
				if idx != j {
					t.Fatalf("node %d source %s: delivery %d has index %d (not FIFO): %v",
						i, src, j, idx, got)
				}
			}
		}
	}
}

// TestReliableSoakBoundedState pushes 10 000 payloads down a 3-node line in
// reliable mode and asserts the data-plane state every node pins stays
// bounded by the window and cache sizes — the regression test for the
// unbounded seen-map the windows replaced.
func TestReliableSoakBoundedState(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-publish soak")
	}
	const (
		window = reliable.DefaultWindowSpan
		cache  = reliable.DefaultCachePayloads
	)
	c := newDriven(t, 0, 1, nil)
	nodes := lineCluster(t, 3, c.add, nil)
	rdv, tail := nodes[0], nodes[2]
	if err := rdv.CreateGroupMode("soak", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("soak"); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	for _, nd := range nodes[1:] {
		if err := nd.Join("soak", 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	tail.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { delivered++ })

	const total = 10000
	const batch = 200
	for base := 0; base < total; base += batch {
		for i := 0; i < batch; i++ {
			if err := rdv.Publish("soak", []byte(fmt.Sprintf("m%d", base+i))); err != nil {
				t.Fatalf("publish %d: %v", base+i, err)
			}
		}
		// Pace by the tail's progress so the inboxes never overflow and the
		// windows genuinely slide (10k sequences through a 1024-seq window).
		want := base + batch
		c.waitFor(t, 10*time.Second, func() bool { return delivered >= want }, func() string {
			return fmt.Sprintf("tail delivered %d of %d", delivered, want)
		})
	}

	for i, nd := range nodes {
		rv := nd.reliability("soak")
		if !rv.Exists {
			t.Fatalf("node %d: no group state", i)
		}
		if rv.WindowEntries > window {
			t.Fatalf("node %d: %d window entries exceed the %d-seq span", i, rv.WindowEntries, window)
		}
		if rv.CachedPayloads > cache || rv.SendBufferCached > cache {
			t.Fatalf("node %d: cache overflow: recv=%d pub=%d cap=%d",
				i, rv.CachedPayloads, rv.SendBufferCached, cache)
		}
		if rv.PendingGaps != 0 || rv.PendingOrdered != 0 {
			t.Fatalf("node %d: leftover gaps=%d pending=%d after a lossless soak",
				i, rv.PendingGaps, rv.PendingOrdered)
		}
		if rv.SeenAds > 1024 {
			t.Fatalf("node %d: seen-ads filter grew to %d (cap 1024)", i, rv.SeenAds)
		}
	}
	if got := rdv.reliability("soak").SendBufferSeq; got != total {
		t.Fatalf("publisher high-water = %d, want %d", got, total)
	}
}

// TestPublishIntoPartitionReturnsError cuts a member off from the whole
// network and requires Publish to surface the failure instead of silently
// dropping the payload: every tree link is unreachable, so the node must
// report ErrPublishFailed and count the failed sends.
func TestPublishIntoPartitionReturnsError(t *testing.T) {
	c := newDriven(t, 0, 11, nil)
	nodes := lineCluster(t, 3, c.add, nil)
	rdv, pub := nodes[0], nodes[2]
	if err := rdv.CreateGroup("part"); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("part"); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	for _, nd := range nodes[1:] {
		if err := nd.Join("part", 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Publish("part", []byte("before")); err != nil {
		t.Fatalf("pre-partition publish: %v", err)
	}

	// Fully isolate the publisher: its island contains only itself.
	c.chaos.Partition(pub.Addr())
	before := pub.Stats().SendErrors
	err := pub.Publish("part", []byte("into the void"))
	if !errors.Is(err, ErrPublishFailed) {
		t.Fatalf("partitioned publish err = %v, want ErrPublishFailed", err)
	}
	if got := pub.Stats().SendErrors; got <= before {
		t.Fatalf("SendErrors = %d after failed publish, want > %d", got, before)
	}

	// Healing restores the data plane (the tree may need a repair epoch).
	c.chaos.Heal()
	heard := false
	rdv.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { heard = true })
	c.waitFor(t, 10*time.Second, func() bool {
		_ = pub.Publish("part", []byte("after"))
		return heard
	}, static("post-heal publish never reached the rendezvous"))
}

// TestPayloadHandlerEdgeCases covers the handler lifecycle: payloads
// arriving with no handler installed must be absorbed without crashing, and
// a handler installed mid-stream must receive everything published after it.
func TestPayloadHandlerEdgeCases(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	nodes := lineCluster(t, 2, c.add, nil)
	rdv, member := nodes[0], nodes[1]
	if err := rdv.CreateGroupMode("h", wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("h"); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	if err := member.Join("h", 3*time.Second); err != nil {
		t.Fatal(err)
	}

	// No handler installed: the payloads must flow through the window (and
	// be dropped at the application boundary) without panicking.
	for i := 0; i < 5; i++ {
		if err := rdv.Publish("h", []byte("early")); err != nil {
			t.Fatal(err)
		}
	}
	c.waitFor(t, 3*time.Second, func() bool {
		return member.Stats().Received["payload"] >= 5
	}, static("payloads did not reach the handler-less member"))

	// Install the handler mid-stream: everything published from here on is
	// delivered (the pre-handler payloads were consumed by the window and
	// are not replayed).
	var got []string
	member.SetPayloadHandler(func(_ string, _ wire.PeerInfo, data []byte) {
		got = append(got, string(data))
	})
	const late = 7
	for i := 0; i < late; i++ {
		if err := rdv.Publish("h", []byte(fmt.Sprintf("late%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitFor(t, 3*time.Second, func() bool { return len(got) >= late }, static("mid-stream handler missed payloads"))
	for i := 0; i < late; i++ {
		if want := fmt.Sprintf("late%d", i); got[i] != want {
			t.Fatalf("delivery %d = %q, want %q (order broken)", i, got[i], want)
		}
	}
}

// reliabilityView snapshots one group's data-plane state. Every count is bounded by
// construction (windows slide, caches are rings, the dedup filter is
// TTL/size-capped), which the bounded-memory soak asserts through this view.
type reliabilityView struct {
	Exists bool
	Mode   wire.DeliveryMode
	// Sources counts the per-source receive windows currently tracked.
	Sources int
	// WindowEntries sums the windows' received-set sizes; PendingGaps sums
	// the sequences under NACK recovery; PendingOrdered sums the payloads
	// held back for in-order release.
	WindowEntries  int
	PendingGaps    int
	PendingOrdered int
	// CachedPayloads sums the relay retransmission caches.
	CachedPayloads int
	// SendBufferSeq is this node's own publish high-water mark for the
	// group; SendBufferCached is how many of its payloads remain buffered.
	SendBufferSeq    uint64
	SendBufferCached int
	// SeenAds is the node-wide advertisement/search dedup filter size.
	SeenAds int
}

// reliability snapshots the reliable data-plane state for a group.
func (n *Node) reliability(groupID string) (rv reliabilityView) {
	n.post(func() {
		rv.SeenAds = n.seenAds.Len()
		gs := n.groups[groupID]
		if gs == nil {
			return
		}
		rv.Exists = true
		rv.Mode = gs.mode
		rv.Sources = len(gs.recv)
		for _, w := range gs.recv {
			rv.WindowEntries += w.Tracked()
			rv.PendingGaps += w.PendingGaps()
			rv.PendingOrdered += w.PendingOrdered()
			rv.CachedPayloads += w.Cached()
		}
		if gs.pub != nil {
			rv.SendBufferSeq = gs.pub.High()
			rv.SendBufferCached = gs.pub.Cached()
		}
	})
	return rv
}
