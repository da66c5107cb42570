package overlay

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBuildTwoLayerValidation(t *testing.T) {
	uni := syntheticUniverse(50, 1)
	rng := rand.New(rand.NewSource(1))
	bad := []TwoLayerConfig{
		{CoreFraction: 0, CoreDegree: 4, LeafLinks: 2},
		{CoreFraction: 1.5, CoreDegree: 4, LeafLinks: 2},
		{CoreFraction: 0.1, CoreDegree: 0, LeafLinks: 2},
		{CoreFraction: 0.1, CoreDegree: 4, LeafLinks: 0},
	}
	for _, cfg := range bad {
		if _, err := BuildTwoLayer(uni, cfg, rng); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestBuildTwoLayerStructure(t *testing.T) {
	uni := syntheticUniverse(400, 2)
	g, err := BuildTwoLayer(uni, DefaultTwoLayerConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Fatal("two-layer overlay disconnected")
	}
	// Core = top 5% by capacity (ties by index) = 20 peers; their mean
	// degree must exceed the leaves' (they carry the mesh plus leaf
	// attachments).
	ranked := g.AlivePeers()
	sort.SliceStable(ranked, func(a, b int) bool { return uni.Caps[ranked[a]] > uni.Caps[ranked[b]] })
	coreMembers := ranked[:20]
	inCore := make(map[int]bool)
	var coreDeg, leafDeg float64
	for _, c := range coreMembers {
		inCore[c] = true
		coreDeg += float64(g.Degree(c))
	}
	coreDeg /= float64(len(coreMembers))
	leaves := 0
	for _, p := range g.AlivePeers() {
		if !inCore[p] {
			leafDeg += float64(g.Degree(p))
			leaves++
		}
	}
	leafDeg /= float64(leaves)
	if coreDeg < 3*leafDeg {
		t.Fatalf("core mean degree %v not well above leaf %v", coreDeg, leafDeg)
	}
	// Leaves carry their configured uplinks (+1 tolerance for connectivity
	// patching).
	cfg := DefaultTwoLayerConfig()
	for _, p := range g.AlivePeers() {
		if !inCore[p] && g.Degree(p) > cfg.LeafLinks+1 {
			t.Fatalf("leaf %d has %d links, want <= %d", p, g.Degree(p), cfg.LeafLinks+1)
		}
	}
}

func TestTwoLayerLowDiameter(t *testing.T) {
	uni := syntheticUniverse(1000, 3)
	g, err := BuildTwoLayer(uni, DefaultTwoLayerConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	mean, max := PathLengthStats(g, 20, rand.New(rand.NewSource(4)))
	// Leaf → core → (mesh ≤ a few hops) → core → leaf.
	if max > 8 {
		t.Fatalf("two-layer diameter bound %d too large", max)
	}
	if mean > 5 {
		t.Fatalf("two-layer mean path length %v too large", mean)
	}
}

func TestTwoLayerTinyPopulation(t *testing.T) {
	uni := syntheticUniverse(5, 4)
	g, err := BuildTwoLayer(uni, DefaultTwoLayerConfig(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Fatal("tiny two-layer overlay disconnected")
	}
}
