// Package core implements the GroupCast utility function — the paper's
// primary contribution (Section 3.1). A peer p_i scoring a candidate list L
// combines two preference distributions:
//
//   - Distance Preference (Eq. 1-2): favours candidates with small network
//     coordinate distance,
//   - Capacity Preference (Eq. 3): favours candidates with large node
//     capacity,
//
// into the Selection Preference (Eq. 4-5), weighted by parameters derived
// from p_i's own resource level r_i (the fraction of peers weaker than p_i):
//
//	α = 1 − r_i,   β = r_i,   γ = r_i^(−ln r_i)
//
// so weak peers choose by proximity, powerful peers by capacity, and medium
// peers by both. The same function with neighbour-occurrence frequencies in
// place of capacities gives the overlay bootstrap preference (Eq. 6).
//
// Each Section 3 selection rule is implemented once, here, and both the
// simulator (internal/overlay, internal/protocol) and the live node
// (internal/node) call it: ResourceLevel (r̂), SelectNeighbors (the Eq. 6
// neighbour choice), AcceptBackLink (PB_k, then pb) and SelectForwarders
// (SSA). The deputy roster is protocol.DeputyRoster, beside the succession
// rules.
package core

import (
	"errors"
	"math"

	"groupcast/internal/peer"
)

// Candidate is one entry of the list L a peer evaluates: another peer's
// advertised capacity and its distance from the evaluating peer (network
// coordinate distance in ms).
type Candidate struct {
	// Capacity is the candidate's node capacity (64 kbps connection units)
	// or, for the overlay bootstrap variant of Eq. 6, its occurrence
	// frequency in the candidate list.
	Capacity float64
	// Distance is the estimated distance from the evaluating peer in ms.
	Distance float64
}

// Params are the tunable utility parameters of Section 3.1.
type Params struct {
	// Alpha ∈ (−∞, 1) tunes distance preference sharpness (higher = stronger
	// preference for close peers).
	Alpha float64
	// Beta ∈ (−∞, 1) tunes capacity preference sharpness.
	Beta float64
	// Gamma ∈ [0, 1] weights capacity preference against distance preference.
	Gamma float64
}

// DeriveParams computes the paper's self-tuning parameter setting from a
// resource level r (clamped to [0.01, 0.99]):
//
//	α = 1 − r,  β = r,  γ = r^(−ln r) = e^(−(ln r)²)
func DeriveParams(r float64) Params {
	r = peer.ClampResourceLevel(r)
	lr := math.Log(r)
	return Params{
		Alpha: 1 - r,
		Beta:  r,
		Gamma: math.Exp(-lr * lr),
	}
}

// Validate reports whether the parameters are in their legal ranges.
func (p Params) Validate() error {
	switch {
	case math.IsNaN(p.Alpha) || p.Alpha >= 1:
		return errors.New("core: alpha must be < 1")
	case math.IsNaN(p.Beta) || p.Beta >= 1:
		return errors.New("core: beta must be < 1")
	case math.IsNaN(p.Gamma) || p.Gamma < 0 || p.Gamma > 1:
		return errors.New("core: gamma must be in [0, 1]")
	}
	return nil
}

// minDistance floors distances so the 1/d term in Eq. 1 stays finite when
// two peers share a location (D(i,j) = 0).
const minDistance = 1e-6

// ErrNoCandidates is returned when a preference is requested over an empty
// candidate list.
var ErrNoCandidates = errors.New("core: empty candidate list")

// normalizedDistances implements Eq. 2: d_i(L, j) = D(i,j) / max_k D(i,k),
// yielding values in (0, 1].
func normalizedDistances(cands []Candidate) []float64 {
	maxD := minDistance
	for _, c := range cands {
		if c.Distance > maxD {
			maxD = c.Distance
		}
	}
	out := make([]float64, len(cands))
	for i, c := range cands {
		d := c.Distance / maxD
		if d < minDistance {
			d = minDistance
		}
		out[i] = d
	}
	return out
}

// DistancePreferences implements Eq. 1 for every candidate:
//
//	DP_i(L, j) = (1/d_i(L,j) − α) / Σ_k (1/d_i(L,k) − α)
//
// The result is a probability distribution over the candidates.
func DistancePreferences(alpha float64, cands []Candidate) ([]float64, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	if alpha >= 1 {
		return nil, errors.New("core: alpha must be < 1")
	}
	norm := normalizedDistances(cands)
	out := make([]float64, len(cands))
	var sum float64
	for i, d := range norm {
		// 1/d ≥ 1 and α < 1, so each term is strictly positive.
		out[i] = 1/d - alpha
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// CapacityPreferences implements Eq. 3 for every candidate:
//
//	PC_i(L, j) = (C_j − β) / Σ_k (C_k − β)
//
// The paper prints the denominator as Σ_k C_k − β; we sum the shifted terms
// (as Eq. 1 does) so the preferences form a probability distribution. Terms
// are floored at a small positive value in case a capacity falls below β.
func CapacityPreferences(beta float64, cands []Candidate) ([]float64, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	if beta >= 1 {
		return nil, errors.New("core: beta must be < 1")
	}
	const floor = 1e-9
	out := make([]float64, len(cands))
	var sum float64
	for i, c := range cands {
		t := c.Capacity - beta
		if t < floor {
			t = floor
		}
		out[i] = t
		sum += t
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// SelectionPreferences implements Eq. 4/5: the combined utility
//
//	P_i(L, j) = γ·PC_i(L, j) + (1 − γ)·DP_i(L, j)
//
// over the whole candidate list. The result sums to 1.
func SelectionPreferences(p Params, cands []Candidate) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dp, err := DistancePreferences(p.Alpha, cands)
	if err != nil {
		return nil, err
	}
	pc, err := CapacityPreferences(p.Beta, cands)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(cands))
	for i := range out {
		out[i] = p.Gamma*pc[i] + (1-p.Gamma)*dp[i]
	}
	return out, nil
}

// SelectionPreferencesFor is the convenience form of Eq. 5: derive the
// parameters from the evaluating peer's resource level r and score the list.
func SelectionPreferencesFor(r float64, cands []Candidate) ([]float64, error) {
	return SelectionPreferences(DeriveParams(r), cands)
}

// ResourceLevel is the paper's estimate r̂ (Section 3.1) for a peer of
// capacity self: the fraction of the peers it knows that are weaker than
// it, clamped to [0.01, 0.99], and 0.5 when it knows none.
func ResourceLevel(self float64, known []Candidate) float64 {
	sample := make([]peer.Capacity, len(known))
	for i, c := range known {
		sample[i] = peer.Capacity(c.Capacity)
	}
	return peer.EstimateResourceLevel(peer.Capacity(self), sample)
}
