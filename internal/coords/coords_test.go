package coords

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"groupcast/internal/netsim"
)

func TestDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1}, Point{1}, 0},
		{Point{0, 0, 0}, Point{1, 2, 2}, 3},
		{Point{1, 1}, Point{1}, 0}, // shared prefix only
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		p, q := make(Point, 4), make(Point, 4)
		for i := 0; i < 4; i++ {
			// Bound the coordinates so squaring cannot overflow.
			p[i] = math.Mod(a[i], 1e6)
			q[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(p[i]) {
				p[i] = 0
			}
			if math.IsNaN(q[i]) {
				q[i] = 0
			}
		}
		return math.Abs(Dist(p, q)-Dist(q, p)) < 1e-12 && Dist(p, q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone aliases")
	}
}

func TestGNPConfigValidation(t *testing.T) {
	dist := func(i, j int) float64 { return 1 }
	cases := []struct {
		name   string
		mutate func(*GNPConfig)
		n      int
	}{
		{"zero dims", func(c *GNPConfig) { c.Dimensions = 0 }, 20},
		{"too few landmarks", func(c *GNPConfig) { c.Landmarks = 2 }, 20},
		{"fewer hosts than landmarks", func(c *GNPConfig) {}, 3},
		{"no iterations", func(c *GNPConfig) { c.Iterations = 0 }, 20},
		{"bad lr", func(c *GNPConfig) { c.LearningRate = 0 }, 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultGNPConfig()
			c.mutate(&cfg)
			if _, err := EmbedGNP(c.n, dist, cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

// planted returns a ground-truth distance function from random points in a
// Euclidean space — a perfectly embeddable metric.
func planted(n, dims int, seed int64) (func(i, j int) float64, []Point) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dims)
		for d := range p {
			p[d] = rng.Float64() * 200
		}
		pts[i] = p
	}
	return func(i, j int) float64 { return Dist(pts[i], pts[j]) }, pts
}

func TestEmbedGNPRecoversEuclideanMetric(t *testing.T) {
	const n = 40
	dist, _ := planted(n, 3, 1)
	cfg := DefaultGNPConfig()
	cfg.Dimensions = 3
	cfg.Landmarks = 8
	cfg.Iterations = 2000
	cfg.LearningRate = 0.5
	points, err := EmbedGNP(n, dist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mre := meanRelativeError(points, dist); mre > 0.15 {
		t.Fatalf("mean relative error %v on embeddable metric, want < 0.15", mre)
	}
}

func TestEmbedGNPOnTransitStub(t *testing.T) {
	// The real use: embed peers attached to a transit-stub underlay. Internet
	// latencies are not perfectly Euclidean, so tolerate moderate error.
	cfg := netsim.DefaultConfig()
	cfg.TransitDomains = 2
	cfg.TransitNodesPerDomain = 4
	cfg.StubDomainsPerTransitNode = 2
	cfg.StubNodesPerDomain = 4
	nw, err := netsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	att, err := netsim.Attach(nw, 60, netsim.AccessLatencyRange, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	dist := func(i, j int) float64 {
		return att.Distance(netsim.PeerID(i), netsim.PeerID(j))
	}
	gcfg := DefaultGNPConfig()
	gcfg.Iterations = 1500
	gcfg.LearningRate = 0.5
	points, err := EmbedGNP(60, dist, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if mre := meanRelativeError(points, dist); mre > 0.5 {
		t.Fatalf("mean relative error %v on transit-stub, want < 0.5", mre)
	}
}

func TestEmbedGNPDeterministic(t *testing.T) {
	dist, _ := planted(20, 3, 3)
	cfg := DefaultGNPConfig()
	cfg.Iterations = 50
	a, err := EmbedGNP(20, dist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EmbedGNP(20, dist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("same seed, different embedding")
			}
		}
	}
}

func TestVivaldiConverges(t *testing.T) {
	const n = 30
	dist, _ := planted(n, 3, 4)
	nodes := make([]*VivaldiNode, n)
	for i := range nodes {
		nodes[i] = NewVivaldiNode(DefaultVivaldiConfig(), int64(i+1))
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 6000; round++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		nodes[i].Update(nodes[j].Coord(), nodes[j].ErrorEstimate(), dist(i, j))
	}
	points := make([]Point, n)
	for i := range points {
		points[i] = nodes[i].Coord()
	}
	if mre := meanRelativeError(points, dist); mre > 0.3 {
		t.Fatalf("Vivaldi mean relative error %v, want < 0.3", mre)
	}
	for i := range nodes {
		if e := nodes[i].ErrorEstimate(); e < 0 || e > 1 {
			t.Fatalf("error estimate %v out of range", e)
		}
	}
}

func TestVivaldiIgnoresBadRTT(t *testing.T) {
	v := NewVivaldiNode(DefaultVivaldiConfig(), 1)
	before := v.Coord()
	v.Update(Point{10, 10, 10}, 0.5, 0)
	v.Update(Point{10, 10, 10}, 0.5, -5)
	after := v.Coord()
	for d := range before {
		if before[d] != after[d] {
			t.Fatal("non-positive RTT moved the coordinate")
		}
	}
}

func TestVivaldiTieBreaksCoincidentCoords(t *testing.T) {
	v := NewVivaldiNode(DefaultVivaldiConfig(), 2)
	// Remote at the same origin: must still move somewhere.
	v.Update(Point{0, 0, 0}, 1, 50)
	moved := false
	for _, c := range v.Coord() {
		if c != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("coincident coordinates not tie-broken")
	}
}

func TestVivaldiDefaultsApplied(t *testing.T) {
	v := NewVivaldiNode(VivaldiConfig{}, 1)
	if len(v.Coord()) != 3 {
		t.Fatalf("default dims = %d, want 3", len(v.Coord()))
	}
}

// meanRelativeError is the mean of |est − actual| / actual over all host
// pairs (i < j) with a positive ground-truth distance.
func meanRelativeError(points []Point, dist func(i, j int) float64) float64 {
	var sum float64
	var count int
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if actual := dist(i, j); actual > 0 {
				sum += math.Abs(Dist(points[i], points[j])-actual) / actual
				count++
			}
		}
	}
	return sum / float64(count)
}
