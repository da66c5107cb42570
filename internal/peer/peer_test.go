package peer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTable1SumsToOne(t *testing.T) {
	var sum float64
	for _, c := range Table1() {
		sum += c.Fraction
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("Table 1 fractions sum to %v", sum)
	}
}

func TestNewCapacitySamplerValidation(t *testing.T) {
	cases := []struct {
		name    string
		classes []CapacityClass
		wantErr bool
	}{
		{"nil", nil, true},
		{"bad sum", []CapacityClass{{Level: 1, Fraction: 0.5}}, true},
		{"negative fraction", []CapacityClass{
			{Level: 1, Fraction: 1.5}, {Level: 2, Fraction: -0.5},
		}, true},
		{"zero level", []CapacityClass{{Level: 0, Fraction: 1}}, true},
		{"ok", Table1(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewCapacitySampler(c.classes)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}

func TestSamplerMatchesTable1(t *testing.T) {
	s := MustTable1Sampler()
	rng := rand.New(rand.NewSource(1))
	const n = 200_000
	counts := make(map[Capacity]int)
	for i := 0; i < n; i++ {
		counts[s.Sample(rng)]++
	}
	for _, c := range Table1() {
		got := float64(counts[c.Level]) / n
		// 3-sigma binomial tolerance plus floor for the rare class.
		tol := 3*math.Sqrt(c.Fraction*(1-c.Fraction)/n) + 1e-4
		if math.Abs(got-c.Fraction) > tol {
			t.Errorf("level %v: frequency %.5f, want %.5f ± %.5f", c.Level, got, c.Fraction, tol)
		}
	}
}

func TestSampleN(t *testing.T) {
	s := MustTable1Sampler()
	caps := s.SampleN(100, rand.New(rand.NewSource(2)))
	if len(caps) != 100 {
		t.Fatalf("len = %d", len(caps))
	}
	valid := map[Capacity]bool{1: true, 10: true, 100: true, 1000: true, 10000: true}
	for _, c := range caps {
		if !valid[c] {
			t.Fatalf("invalid capacity %v", c)
		}
	}
}

func TestResourceLevels(t *testing.T) {
	caps := []Capacity{1, 10, 10, 100}
	r := ResourceLevels(caps)
	want := []float64{0, 0.25, 0.25, 0.75}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-12 {
			t.Fatalf("r = %v, want %v", r, want)
		}
	}
	if ResourceLevels(nil) != nil {
		t.Fatal("nil input should give nil")
	}
}

func TestResourceLevelsProperty(t *testing.T) {
	// Properties: r in [0,1); equal capacities get equal r; higher capacity
	// never gets lower r.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		caps := MustTable1Sampler().SampleN(int(n%50)+1, rng)
		r := ResourceLevels(caps)
		for i := range caps {
			if r[i] < 0 || r[i] >= 1 {
				return false
			}
			for j := range caps {
				if caps[i] == caps[j] && r[i] != r[j] {
					return false
				}
				if caps[i] > caps[j] && r[i] < r[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateResourceLevel(t *testing.T) {
	sample := []Capacity{1, 10, 100, 1000}
	if got := EstimateResourceLevel(100, sample); got != 0.5 {
		t.Fatalf("estimate = %v, want 0.5", got)
	}
	// Clamping.
	if got := EstimateResourceLevel(0.5, sample); got != 0.01 {
		t.Fatalf("low clamp = %v, want 0.01", got)
	}
	if got := EstimateResourceLevel(1e6, sample); got != 0.99 {
		t.Fatalf("high clamp = %v, want 0.99", got)
	}
	// Empty sample defaults to the median assumption.
	if got := EstimateResourceLevel(100, nil); got != 0.5 {
		t.Fatalf("empty-sample estimate = %v, want 0.5", got)
	}
}

func TestClampResourceLevel(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0.01}, {0, 0.01}, {0.5, 0.5}, {1, 0.99}, {2, 0.99},
	}
	for _, c := range cases {
		if got := ClampResourceLevel(c.in); got != c.want {
			t.Errorf("clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestZipfCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	caps := ZipfCapacities(10_000, 2.0, 1000, rng)
	if len(caps) != 10_000 {
		t.Fatalf("len = %d", len(caps))
	}
	ones := 0
	for _, c := range caps {
		if c < 1 || c > 1000 {
			t.Fatalf("capacity %v out of range", c)
		}
		if c == 1 {
			ones++
		}
	}
	// Zipf(2) puts most of the mass on rank 1.
	if frac := float64(ones) / 10_000; frac < 0.4 {
		t.Fatalf("rank-1 fraction %v too small for Zipf(2)", frac)
	}
	if ZipfCapacities(0, 2, 10, rng) != nil {
		t.Fatal("n=0 should give nil")
	}
	if ZipfCapacities(5, 2, 0, rng) != nil {
		t.Fatal("maxRank=0 should give nil")
	}
}

func TestUniformDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := UniformDistances(1000, 0, 400, rng)
	if len(ds) != 1000 {
		t.Fatalf("len = %d", len(ds))
	}
	for _, d := range ds {
		if d < 0 || d > 400 {
			t.Fatalf("distance %v out of range", d)
		}
	}
	if UniformDistances(0, 0, 1, rng) != nil {
		t.Fatal("n=0 should give nil")
	}
}
