package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleWithoutReplacementBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	weights := []float64{1, 2, 3, 4, 5}
	got, err := SampleWithoutReplacement(weights, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	seen := make(map[int]bool)
	for _, idx := range got {
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
}

func TestSampleWithoutReplacementEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// k > n returns all non-zero-weight items.
	got, err := SampleWithoutReplacement([]float64{1, 1}, 10, rng)
	if err != nil || len(got) != 2 {
		t.Fatalf("got %v err %v", got, err)
	}
	// k <= 0 returns nothing.
	got, err = SampleWithoutReplacement([]float64{1, 1}, 0, rng)
	if err != nil || got != nil {
		t.Fatalf("k=0: got %v err %v", got, err)
	}
	// Zero-weight items are skipped.
	got, err = SampleWithoutReplacement([]float64{0, 1, 0}, 3, rng)
	if err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("zero-weight skip: got %v err %v", got, err)
	}
	// All-zero weights fall back to uniform and still return k items.
	got, err = SampleWithoutReplacement([]float64{0, 0, 0}, 2, rng)
	if err != nil || len(got) != 2 {
		t.Fatalf("all-zero: got %v err %v", got, err)
	}
	if _, err := SampleWithoutReplacement(nil, 1, rng); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := SampleWithoutReplacement([]float64{-1}, 1, rng); !errors.Is(err, ErrBadWeights) {
		t.Fatalf("bad weights err = %v", err)
	}
}

func TestSampleWithoutReplacementBias(t *testing.T) {
	// The heavy item must appear in a k=1 draw with frequency ≈ its weight
	// share.
	rng := rand.New(rand.NewSource(6))
	weights := []float64{1, 1, 8}
	hit := 0
	const n = 40_000
	for i := 0; i < n; i++ {
		got, err := SampleWithoutReplacement(weights, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] == 2 {
			hit++
		}
	}
	if frac := float64(hit) / n; math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("heavy item frequency %v, want ≈0.8", frac)
	}
}

func TestSampleWithoutReplacementProperty(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		k := int(kRaw % 35)
		weights := make([]float64, n)
		nonZero := 0
		for i := range weights {
			if rng.Float64() < 0.8 {
				weights[i] = rng.Float64() * 10
				if weights[i] > 0 {
					nonZero++
				}
			}
		}
		got, err := SampleWithoutReplacement(weights, k, rng)
		if err != nil {
			return false
		}
		limit := k
		if nonZero > 0 && nonZero < limit {
			limit = nonZero
		}
		if len(got) > limit && nonZero > 0 {
			return false
		}
		seen := make(map[int]bool)
		for _, idx := range got {
			if idx < 0 || idx >= n || seen[idx] {
				return false
			}
			seen[idx] = true
			if nonZero > 0 && weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectByPreference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cands := testCandidates(100, 8)
	got, err := SelectByPreference(0.5, cands, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	if _, err := SelectByPreference(0.5, nil, 3, rng); err == nil {
		t.Fatal("empty candidates accepted")
	}
}

func TestSelectByPreferenceWeakPeerPicksNearby(t *testing.T) {
	// A weak peer's selections should be near on average; a strong peer's
	// should be high-capacity on average.
	rng := rand.New(rand.NewSource(9))
	cands := testCandidates(1000, 10)
	var weakDist, allDist float64
	for _, c := range cands {
		allDist += c.Distance
	}
	allDist /= float64(len(cands))
	const trials = 200
	for i := 0; i < trials; i++ {
		idxs, err := SelectByPreference(0.05, cands, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range idxs {
			weakDist += cands[idx].Distance
		}
	}
	weakDist /= trials * 5
	if weakDist > allDist*0.7 {
		t.Fatalf("weak peer mean selected distance %v not well below population mean %v", weakDist, allDist)
	}
}
