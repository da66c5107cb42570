package overlay

import (
	"math/rand"
	"testing"

	"groupcast/internal/metrics"
)

func buildTestPLOD(t *testing.T, n int, seed int64) *Graph {
	t.Helper()
	g, err := BuildPLOD(syntheticUniverse(n, seed), DefaultPLODConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildPLODValidation(t *testing.T) {
	uni := syntheticUniverse(10, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := BuildPLOD(uni, PLODConfig{Alpha: 1, MaxDegree: 10}, rng); err == nil {
		t.Fatal("alpha <= 1 accepted")
	}
	if _, err := BuildPLOD(uni, PLODConfig{Alpha: 2, MaxDegree: 1}, rng); err == nil {
		t.Fatal("max degree < 2 accepted")
	}
}

func TestBuildPLODConnectedAndSymmetric(t *testing.T) {
	g := buildTestPLOD(t, 500, 2)
	if g.NumAlive() != 500 {
		t.Fatalf("alive = %d", g.NumAlive())
	}
	if !IsConnected(g) {
		t.Fatal("patched PLOD overlay disconnected")
	}
	// The baseline overlay is symmetric.
	for _, i := range g.AlivePeers() {
		for j := range g.out[i] {
			if !g.HasEdge(j, i) {
				t.Fatalf("asymmetric edge %d→%d", i, j)
			}
		}
	}
}

func TestPLODDegreeDistributionIsHeavyTailed(t *testing.T) {
	g := buildTestPLOD(t, 3000, 3)
	degrees := g.Degrees()
	hist := metrics.DegreeHistogram(degrees)
	pts := metrics.SortedDegreePoints(hist)
	var xs, ys []float64
	for _, p := range pts {
		xs = append(xs, float64(p.Degree))
		ys = append(ys, float64(p.Count))
	}
	slope, _, ok := metrics.LogLogSlope(xs, ys)
	if !ok {
		t.Fatal("log-log fit failed")
	}
	// Figure 8 generates α = 1.8 power law; the realized node-degree
	// distribution must have a clearly negative log-log slope.
	if slope > -0.8 {
		t.Fatalf("log-log slope %v too shallow for a power law", slope)
	}
	// And a real tail: max degree far above the median.
	maxDeg := 0
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 20 {
		t.Fatalf("max degree %d — no heavy tail", maxDeg)
	}
}

func TestComponentsAndPatching(t *testing.T) {
	g := aliveGraph(t, 6, 4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 0)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(3, 2)
	comps := components(g)
	if len(comps) != 4 { // {0,1} {2,3} {4} {5}
		t.Fatalf("components = %d, want 4", len(comps))
	}
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
	patchComponents(g, rand.New(rand.NewSource(1)))
	if !IsConnected(g) {
		t.Fatal("patching failed")
	}
}
