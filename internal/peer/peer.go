// Package peer models the end hosts of a GroupCast deployment: their
// capacities (drawn from the Saroiu et al. measurement distribution the paper
// reproduces as Table 1), their resource levels, and churn processes.
package peer

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Capacity is a peer's node capacity in the paper's units: the number of
// 64 kbps connections the peer's access bandwidth can sustain.
type Capacity float64

// CapacityClass is one row of Table 1: a capacity level and the fraction of
// peers at that level.
type CapacityClass struct {
	Level    Capacity
	Fraction float64
}

// Table1 is the capacity distribution of peers used throughout the paper's
// evaluation (from the Saroiu et al. Gnutella measurement study [25]):
//
//	1x: 20%, 10x: 45%, 100x: 30%, 1000x: 4.9%, 10000x: 0.1%
func Table1() []CapacityClass {
	return []CapacityClass{
		{Level: 1, Fraction: 0.20},
		{Level: 10, Fraction: 0.45},
		{Level: 100, Fraction: 0.30},
		{Level: 1000, Fraction: 0.049},
		{Level: 10000, Fraction: 0.001},
	}
}

// CapacitySampler draws capacities from a categorical distribution.
type CapacitySampler struct {
	classes []CapacityClass
	cum     []float64
}

// NewCapacitySampler validates the classes (positive levels, fractions
// summing to 1 within 1e-9) and returns a sampler.
func NewCapacitySampler(classes []CapacityClass) (*CapacitySampler, error) {
	if len(classes) == 0 {
		return nil, errors.New("peer: no capacity classes")
	}
	var sum float64
	cum := make([]float64, len(classes))
	for i, c := range classes {
		if c.Level <= 0 {
			return nil, fmt.Errorf("peer: non-positive capacity level %v", c.Level)
		}
		if c.Fraction < 0 {
			return nil, fmt.Errorf("peer: negative fraction %v", c.Fraction)
		}
		sum += c.Fraction
		cum[i] = sum
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return nil, fmt.Errorf("peer: fractions sum to %v, want 1", sum)
	}
	cp := make([]CapacityClass, len(classes))
	copy(cp, classes)
	return &CapacitySampler{classes: cp, cum: cum}, nil
}

// MustTable1Sampler returns a sampler for Table 1; the distribution is a
// compile-time constant so failure is a programming error.
func MustTable1Sampler() *CapacitySampler {
	s, err := NewCapacitySampler(Table1())
	if err != nil {
		panic(err)
	}
	return s
}

// Sample draws one capacity.
func (s *CapacitySampler) Sample(rng *rand.Rand) Capacity {
	u := rng.Float64() * s.cum[len(s.cum)-1]
	idx := sort.SearchFloat64s(s.cum, u)
	if idx >= len(s.classes) {
		idx = len(s.classes) - 1
	}
	return s.classes[idx].Level
}

// SampleN draws n capacities.
func (s *CapacitySampler) SampleN(n int, rng *rand.Rand) []Capacity {
	out := make([]Capacity, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}

// ResourceLevels computes each peer's exact resource level r_i: the fraction
// of peers with strictly less capacity (Section 3.1). The paper estimates
// this by sampling; the exact version is used by the simulator and as the
// ground truth in tests.
func ResourceLevels(caps []Capacity) []float64 {
	n := len(caps)
	if n == 0 {
		return nil
	}
	sorted := make([]float64, n)
	for i, c := range caps {
		sorted[i] = float64(c)
	}
	sort.Float64s(sorted)
	out := make([]float64, n)
	for i, c := range caps {
		// Number of peers with capacity strictly below c.
		below := sort.SearchFloat64s(sorted, float64(c))
		out[i] = float64(below) / float64(n)
	}
	return out
}

// EstimateResourceLevel estimates r for a peer of capacity c by comparing
// against a sample of other peers' capacities, as a decentralized peer would
// (Section 3.1: "r_i can be estimated by sampling a few peers that are known
// to p_i"). The estimate is clamped to [0.01, 0.99] so the derived utility
// parameters α, β, γ stay well-defined.
func EstimateResourceLevel(c Capacity, sample []Capacity) float64 {
	if len(sample) == 0 {
		return 0.5
	}
	below := 0
	for _, s := range sample {
		if s < c {
			below++
		}
	}
	return ClampResourceLevel(float64(below) / float64(len(sample)))
}

// ClampResourceLevel restricts a resource level to [0.01, 0.99].
func ClampResourceLevel(r float64) float64 {
	if r < 0.01 {
		return 0.01
	}
	if r > 0.99 {
		return 0.99
	}
	return r
}
