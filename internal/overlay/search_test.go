package overlay

import "testing"

// lineGraph builds 0-1-2-...-n-1 bidirectionally.
func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := aliveGraph(t, n, 1)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(i+1, i); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRippleSearchFindsWithinTTL(t *testing.T) {
	g := lineGraph(t, 10)
	res := RippleSearch(g, 0, 2, func(p int) bool { return p == 2 })
	if !res.Found || res.Peer != 2 || res.Hops != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.Latency <= 0 {
		t.Fatal("no latency accumulated")
	}
	if res.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

func TestRippleSearchOriginMatch(t *testing.T) {
	g := lineGraph(t, 5)
	res := RippleSearch(g, 3, 2, func(p int) bool { return p == 3 })
	if !res.Found || res.Peer != 3 || res.Hops != 0 || res.Messages != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRippleSearchTTLExceeded(t *testing.T) {
	g := lineGraph(t, 10)
	res := RippleSearch(g, 0, 2, func(p int) bool { return p == 9 })
	if res.Found {
		t.Fatalf("found beyond TTL: %+v", res)
	}
	if res.Peer != -1 {
		t.Fatalf("peer = %d", res.Peer)
	}
}

func TestRippleSearchDeadOrigin(t *testing.T) {
	g := lineGraph(t, 5)
	g.RemovePeer(0)
	res := RippleSearch(g, 0, 2, func(p int) bool { return true })
	if res.Found {
		t.Fatal("dead origin found a match")
	}
}

func TestRippleSearchNearestMatchWins(t *testing.T) {
	// Star: 0 connected to 1..5; both 1 and a 2-hop peer match — the 1-hop
	// match must win.
	g := aliveGraph(t, 7, 2)
	for i := 1; i <= 5; i++ {
		_ = g.AddEdge(0, i)
		_ = g.AddEdge(i, 0)
	}
	_ = g.AddEdge(5, 6)
	_ = g.AddEdge(6, 5)
	res := RippleSearch(g, 0, 3, func(p int) bool { return p == 1 || p == 6 })
	if !res.Found || res.Peer != 1 || res.Hops != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRippleSearchTTLExpiryMessageAccounting(t *testing.T) {
	// Pin the flood's cost model on a miss: every link traversal of every
	// explored wave counts, duplicates included, and the TTL bounds the
	// waves. Line 0-1-...-9, origin 0, TTL 3, predicate never matches:
	// wave 1 sends 0→1 (1 msg), wave 2 sends 1→{0,2} (2), wave 3 sends
	// 2→{1,3} (2) — 5 messages, no hit.
	g := lineGraph(t, 10)
	res := RippleSearch(g, 0, 3, func(p int) bool { return false })
	if res.Found || res.Peer != -1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Messages != 5 {
		t.Fatalf("messages = %d, want 5 (per-link accounting drifted)", res.Messages)
	}
}

func TestRippleSearchDuplicateHitDeterministic(t *testing.T) {
	// Cycle 0-1-2-3-0: peer 2 is reachable at 2 hops through both 1 and 3.
	// The dedup must yield exactly one hit, the lowest-numbered parent's
	// (Neighbors is sorted), and still bill every traversal of the wave:
	// wave 1 is 0→{1,3} (2 msgs), wave 2 is 1→{0,2} and 3→{0,2} (4 msgs).
	g := aliveGraph(t, 4, 3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(e[1], e[0]); err != nil {
			t.Fatal(err)
		}
	}
	res := RippleSearch(g, 0, 3, func(p int) bool { return p == 2 })
	if !res.Found || res.Peer != 2 || res.Hops != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.Messages != 6 {
		t.Fatalf("messages = %d, want 6 (duplicate links must still be billed)", res.Messages)
	}
	if len(res.Path) != 3 || res.Path[0] != 0 || res.Path[1] != 1 || res.Path[2] != 2 {
		t.Fatalf("path = %v, want the deterministic [0 1 2]", res.Path)
	}
}

func TestRippleSearchPartitionMiss(t *testing.T) {
	// Two components: 0-1-2 and 3-4. A search from 0 for a peer only the
	// other side holds must exhaust its own component and stop — no hit,
	// and no messages beyond the component's links even with TTL to spare.
	g := aliveGraph(t, 5, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(e[1], e[0]); err != nil {
			t.Fatal(err)
		}
	}
	res := RippleSearch(g, 0, 10, func(p int) bool { return p == 4 })
	if res.Found || res.Peer != -1 {
		t.Fatalf("crossed a partition: %+v", res)
	}
	// Wave 1: 0→1 (1 msg); wave 2: 1→{0,2} (2); wave 3: 2→1 (1), frontier
	// empties and the search gives up well before the TTL.
	if res.Messages != 4 {
		t.Fatalf("messages = %d, want 4 (flood must die with the component)", res.Messages)
	}
}
