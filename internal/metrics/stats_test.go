package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeBasic(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Sum != 10 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if !almostEqual(s.Mean, 2.5, 1e-12) {
		t.Fatalf("mean = %v, want 2.5", s.Mean)
	}
	// Sample stddev of 1..4 is sqrt(5/3).
	if !almostEqual(s.Stddev, math.Sqrt(5.0/3.0), 1e-12) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stddev != 0 {
		t.Fatalf("stddev of singleton = %v, want 0", s.Stddev)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{-5, 15},  // clamped
		{120, 50}, // clamped
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianProperty(t *testing.T) {
	// Property: at least half the samples are <= median and at least half >=.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m, err := Median(xs)
		if err != nil {
			return false
		}
		var le, ge int
		for _, x := range xs {
			if x <= m {
				le++
			}
			if x >= m {
				ge++
			}
		}
		return 2*le >= len(xs) && 2*ge >= len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	bins := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5)
	if len(bins) != 5 {
		t.Fatalf("got %d bins, want 5", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 11 {
		t.Fatalf("histogram lost samples: counted %d of 11", total)
	}
	// The max value must land in the last bin.
	if bins[4].Count < 1 {
		t.Fatalf("last bin empty; max value dropped")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if got := Histogram(nil, 4); got != nil {
		t.Fatalf("Histogram(nil) = %v, want nil", got)
	}
	bins := Histogram([]float64{5, 5, 5}, 4)
	if len(bins) != 1 || bins[0].Count != 3 {
		t.Fatalf("constant-input histogram = %+v", bins)
	}
}

func TestHistogramCountsProperty(t *testing.T) {
	f := func(raw []float64, nb uint8) bool {
		nbins := int(nb%16) + 1
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		bins := Histogram(xs, nbins)
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram([]int{1, 2, 2, 3, 3, 3})
	if h[1] != 1 || h[2] != 2 || h[3] != 3 {
		t.Fatalf("unexpected histogram %v", h)
	}
	pts := SortedDegreePoints(h)
	if len(pts) != 3 || pts[0].Degree != 1 || pts[2].Degree != 3 {
		t.Fatalf("unexpected points %v", pts)
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 2x + 1 must be recovered exactly.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	slope, intercept, ok := LinearFit(xs, ys)
	if !ok || !almostEqual(slope, 2, 1e-12) || !almostEqual(intercept, 1, 1e-12) {
		t.Fatalf("fit = %v %v %v", slope, intercept, ok)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, ok := LinearFit([]float64{1}, []float64{1}); ok {
		t.Fatal("single point fit should fail")
	}
	if _, _, ok := LinearFit([]float64{2, 2}, []float64{1, 5}); ok {
		t.Fatal("zero-variance x fit should fail")
	}
	if _, _, ok := LinearFit([]float64{1, 2}, []float64{1}); ok {
		t.Fatal("length mismatch should fail")
	}
}

func TestLogLogSlopeRecoversPowerLaw(t *testing.T) {
	// y = 100 * x^-2 on x = 1..50 must yield slope -2.
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for x := 1.0; x <= 50; x++ {
		xs = append(xs, x)
		ys = append(ys, 100*math.Pow(x, -2))
	}
	// Sprinkle in invalid points that must be skipped.
	xs = append(xs, -1, 0)
	ys = append(ys, rng.Float64(), 5)
	slope, _, ok := LogLogSlope(xs, ys)
	if !ok {
		t.Fatal("fit failed")
	}
	if !almostEqual(slope, -2, 1e-9) {
		t.Fatalf("slope = %v, want -2", slope)
	}
}
