package overlay

import (
	"math/rand"
	"testing"

	"groupcast/internal/metrics"
)

func TestGroupCastOverlayProximityBeatsPLOD(t *testing.T) {
	// Figures 9 vs 10: mean neighbour distance must be clearly smaller on
	// the GroupCast overlay than on the random power-law overlay.
	uni := syntheticUniverse(600, 21)
	gc, _, err := BuildGroupCast(uni, DefaultBootstrapConfig(), rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPLOD(uni, DefaultPLODConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	gcMean := metrics.Mean(meanNeighborDistance(gc))
	plMean := metrics.Mean(meanNeighborDistance(pl))
	if gcMean >= plMean*0.8 {
		t.Fatalf("GroupCast mean neighbour distance %v not well below PLOD %v", gcMean, plMean)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle has clustering 1.
	g := aliveGraph(t, 3, 2)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		_ = g.AddEdge(e[0], e[1])
		_ = g.AddEdge(e[1], e[0])
	}
	if cc := ClusteringCoefficient(g); cc != 1 {
		t.Fatalf("triangle clustering = %v", cc)
	}
	// Line has clustering 0.
	if cc := ClusteringCoefficient(lineGraph(t, 5)); cc != 0 {
		t.Fatalf("line clustering = %v", cc)
	}
	// Empty graph: 0.
	if cc := ClusteringCoefficient(aliveGraph(t, 3, 3)); cc != 0 {
		t.Fatalf("empty clustering = %v", cc)
	}
}

func TestPathLengthStats(t *testing.T) {
	g := lineGraph(t, 10)
	mean, max := PathLengthStats(g, 10, rand.New(rand.NewSource(1)))
	if max != 9 {
		t.Fatalf("line max hops = %d, want 9", max)
	}
	if mean <= 0 || mean > 9 {
		t.Fatalf("mean hops = %v", mean)
	}
	// Degenerate inputs.
	if m, mx := PathLengthStats(aliveGraph(t, 1, 1), 3, rand.New(rand.NewSource(1))); m != 0 || mx != 0 {
		t.Fatal("singleton graph stats nonzero")
	}
}

func TestGroupCastOverlayLowDiameter(t *testing.T) {
	// Section 3.3's goal: low-diameter overlays. Sampled eccentricity must
	// stay small relative to the population.
	g, _ := buildTestOverlay(t, 1000, 22)
	mean, max := PathLengthStats(g, 20, rand.New(rand.NewSource(2)))
	if max > 12 {
		t.Fatalf("sampled diameter bound %d too large", max)
	}
	if mean > 6 {
		t.Fatalf("mean path length %v too large", mean)
	}
}

func TestRunEpochRepairsUnderConnectedPeers(t *testing.T) {
	_, b := buildTestOverlay(t, 300, 24)
	g := b.Graph()
	rng := rand.New(rand.NewSource(3))
	// Kill 30% of peers abruptly.
	alive := g.AlivePeers()
	for i := 0; i < 90; i++ {
		b.Fail(alive[i])
	}
	// Some survivors are now under-connected.
	cfg := DefaultMaintenanceConfig()
	under := 0
	for _, i := range g.AlivePeers() {
		if g.Degree(i) < cfg.MinDegree {
			under++
		}
	}
	if under == 0 {
		t.Skip("churn did not under-connect anyone")
	}
	repaired := b.RunEpoch(cfg, rng)
	if repaired == 0 {
		t.Fatal("epoch repaired nothing")
	}
	after := 0
	for _, i := range g.AlivePeers() {
		if g.Degree(i) < cfg.MinDegree {
			after++
		}
	}
	if after >= under {
		t.Fatalf("under-connected peers %d → %d after repair", under, after)
	}
	if b.Counters().Get(CtrHeartbeat) == 0 {
		t.Fatal("no heartbeats accounted")
	}
}

func TestRunEpochNoRepairWhenHealthy(t *testing.T) {
	_, b := buildTestOverlay(t, 100, 25)
	// A healthy overlay repairs nothing (or nearly nothing).
	repaired := b.RunEpoch(DefaultMaintenanceConfig(), rand.New(rand.NewSource(4)))
	if repaired > 5 {
		t.Fatalf("healthy overlay repaired %d links", repaired)
	}
}

// meanNeighborDistance returns, for every alive peer with at least one
// neighbour, the average estimated distance to its overlay neighbours — the
// quantity plotted per peer in Figures 9 and 10.
func meanNeighborDistance(g *Graph) []float64 {
	var out []float64
	for _, i := range g.AlivePeers() {
		nbrs := g.Neighbors(i)
		if len(nbrs) == 0 {
			continue
		}
		var sum float64
		for _, j := range nbrs {
			sum += g.Universe().Dist(i, j)
		}
		out = append(out, sum/float64(len(nbrs)))
	}
	return out
}
