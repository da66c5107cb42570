package overlay

import (
	"math"
	"math/rand"
	"testing"

	"groupcast/internal/peer"
)

// syntheticUniverse builds a universe with Table-1 capacities and random
// planar coordinates for distance.
func syntheticUniverse(n int, seed int64) *Universe {
	rng := rand.New(rand.NewSource(seed))
	caps := peer.MustTable1Sampler().SampleN(n, rng)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * 300
		ys[i] = rng.Float64() * 300
	}
	return &Universe{
		Caps: caps,
		Dist: func(i, j int) float64 {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			return math.Sqrt(dx*dx + dy*dy)
		},
	}
}

func aliveGraph(t *testing.T, n int, seed int64) *Graph {
	t.Helper()
	g, err := NewGraph(syntheticUniverse(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g.SetAlive(i)
	}
	return g
}

func TestUniverseValidate(t *testing.T) {
	if err := (&Universe{}).Validate(); err == nil {
		t.Fatal("empty universe accepted")
	}
	u := syntheticUniverse(3, 1)
	u.Dist = nil
	if err := u.Validate(); err == nil {
		t.Fatal("nil Dist accepted")
	}
	if err := syntheticUniverse(3, 1).Validate(); err != nil {
		t.Fatalf("valid universe rejected: %v", err)
	}
	var nilU *Universe
	if err := nilU.Validate(); err == nil {
		t.Fatal("nil universe accepted")
	}
}

func TestGraphEdgeBasics(t *testing.T) {
	g := aliveGraph(t, 5, 1)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directed edge semantics broken")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Duplicate and self-loop are no-ops.
	if err := g.AddEdge(0, 1); err != nil || g.NumEdges() != 1 {
		t.Fatal("duplicate edge changed the graph")
	}
	if err := g.AddEdge(2, 2); err != nil || g.NumEdges() != 1 {
		t.Fatal("self loop changed the graph")
	}
}

func TestGraphDeadPeerEdges(t *testing.T) {
	g, err := NewGraph(syntheticUniverse(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	g.SetAlive(0)
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("edge to dead peer accepted")
	}
}

func TestNeighborsAndDegrees(t *testing.T) {
	g := aliveGraph(t, 4, 3)
	mustAdd := func(a, b int) {
		t.Helper()
		if err := g.AddEdge(a, b); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1)
	mustAdd(2, 0)
	mustAdd(0, 2) // bidirectional with 2
	if len(g.out[0]) != 2 || len(g.in[0]) != 1 {
		t.Fatalf("out=%d in=%d", len(g.out[0]), len(g.in[0]))
	}
	// Degree counts distinct neighbours: {1, 2}.
	if g.Degree(0) != 2 {
		t.Fatalf("degree = %d, want 2", g.Degree(0))
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 2 {
		t.Fatalf("neighbors = %v", nbrs)
	}
	if ds := g.Degrees(); len(ds) != 4 {
		t.Fatalf("degrees over alive peers = %v", ds)
	}
}

func TestRemovePeer(t *testing.T) {
	g := aliveGraph(t, 4, 4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 1)
	g.RemovePeer(1)
	if g.Alive(1) {
		t.Fatal("peer still alive")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("edges = %d after removal", g.NumEdges())
	}
	if g.HasEdge(0, 1) || g.HasEdge(2, 1) || g.HasEdge(1, 2) {
		t.Fatal("dangling edges")
	}
	if g.NumAlive() != 3 {
		t.Fatalf("alive = %d", g.NumAlive())
	}
	g.RemovePeer(1) // idempotent
	if g.NumAlive() != 3 {
		t.Fatal("double removal changed aliveness")
	}
}

func TestAliveBounds(t *testing.T) {
	g := aliveGraph(t, 2, 5)
	if g.Alive(-1) || g.Alive(99) {
		t.Fatal("out-of-range peers reported alive")
	}
}
