package netsim

import (
	"math/rand"
	"testing"
)

func testAttachment(t *testing.T, n int, seed int64) *Attachment {
	t.Helper()
	nw := mustGenerate(t, smallConfig(seed))
	a, err := Attach(nw, n, AccessLatencyRange, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return a
}

func TestAttachBasics(t *testing.T) {
	a := testAttachment(t, 50, 1)
	if a.NumPeers() != 50 {
		t.Fatalf("peers = %d", a.NumPeers())
	}
	stubSet := make(map[RouterID]bool)
	for _, r := range a.nw.stubRouters {
		stubSet[r] = true
	}
	for p := PeerID(0); p < 50; p++ {
		if !stubSet[a.router[p]] {
			t.Fatalf("peer %d attached to non-stub router %d", p, a.router[p])
		}
		al := a.accessLat[p]
		if al < AccessLatencyRange.Lo || al > AccessLatencyRange.Hi {
			t.Fatalf("access latency %v out of range", al)
		}
	}
}

func TestAttachErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Attach(nil, 5, AccessLatencyRange, rng); err == nil {
		t.Fatal("nil network accepted")
	}
	nw := mustGenerate(t, smallConfig(1))
	if _, err := Attach(nw, 0, AccessLatencyRange, rng); err == nil {
		t.Fatal("zero peers accepted")
	}
}

func TestPeerDistanceProperties(t *testing.T) {
	a := testAttachment(t, 40, 2)
	for p := PeerID(0); p < 40; p++ {
		if a.Distance(p, p) != 0 {
			t.Fatalf("self distance nonzero for %d", p)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		p := PeerID(rng.Intn(40))
		q := PeerID(rng.Intn(40))
		if a.Distance(p, q) != a.Distance(q, p) {
			t.Fatalf("asymmetric peer distance (%d,%d)", p, q)
		}
		if p != q && a.Distance(p, q) <= 0 {
			t.Fatalf("non-positive distance between distinct peers (%d,%d)", p, q)
		}
	}
}

func TestPeerPathLinks(t *testing.T) {
	a := testAttachment(t, 20, 4)
	// Find two peers on different routers so the path is non-trivial.
	var p, q PeerID = 0, 0
	for i := PeerID(1); i < 20; i++ {
		if a.router[i] != a.router[0] {
			q = i
			break
		}
	}
	if q == p {
		t.Skip("all peers landed on one router")
	}
	links := a.PathLinks(p, q)
	if len(links) < 3 { // access + >=1 router link + access
		t.Fatalf("path too short: %v", links)
	}
	// First and last are access links (negative pseudo-router IDs).
	if links[0].A >= 0 && links[0].B >= 0 {
		t.Fatalf("first link not an access link: %v", links[0])
	}
	last := links[len(links)-1]
	if last.A >= 0 && last.B >= 0 {
		t.Fatalf("last link not an access link: %v", last)
	}
	if got := a.PathLinks(p, p); got != nil {
		t.Fatalf("self path = %v, want nil", got)
	}
}

func TestAccessLinksDistinctPerPeer(t *testing.T) {
	a := testAttachment(t, 20, 5)
	l0 := accessLink(0, a.router[0])
	l1 := accessLink(1, a.router[1])
	if l0 == l1 {
		t.Fatal("distinct peers share an access link key")
	}
}

func TestMulticastTree(t *testing.T) {
	a := testAttachment(t, 30, 6)
	subs := []PeerID{1, 2, 3, 4, 5, 0} // includes source, which must be skipped
	tree := a.BuildMulticastTree(0, subs)
	if len(tree.Subscribers) != 5 {
		t.Fatalf("subscribers = %d, want 5 (source skipped)", len(tree.Subscribers))
	}
	if tree.NumMessages() == 0 {
		t.Fatal("empty multicast tree")
	}
	// Merged tree has at most as many links as the sum of unicast paths.
	var sum int
	for _, s := range tree.Subscribers {
		sum += len(a.PathLinks(0, s))
	}
	if tree.NumMessages() > sum {
		t.Fatalf("merged tree has more links (%d) than path union bound (%d)",
			tree.NumMessages(), sum)
	}
	// Delays match unicast distances.
	for _, s := range tree.Subscribers {
		if tree.Delays[s] != a.Distance(0, s) {
			t.Fatalf("delay mismatch for %d", s)
		}
	}
	if tree.MeanDelay() <= 0 {
		t.Fatal("mean delay not positive")
	}
}

func TestMulticastTreeEmpty(t *testing.T) {
	a := testAttachment(t, 5, 7)
	tree := a.BuildMulticastTree(0, nil)
	if tree.NumMessages() != 0 || tree.MeanDelay() != 0 {
		t.Fatalf("empty tree has messages=%d delay=%v", tree.NumMessages(), tree.MeanDelay())
	}
}
