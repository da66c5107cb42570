package core

import "math/rand"

// BackLinkInputs are the three rankings a peer p_k computes when deciding
// whether to accept a backward connection request from a joining peer p_i
// (Section 3.3):
//
//   - SelfCapacityRank rc_k: fraction of p_k's neighbours with capacity ≤ C_k,
//   - PeerCapacityRank rc_i: fraction of p_k's neighbours with capacity ≤ C_i,
//   - PeerDistanceRank rd_i: fraction of p_k's neighbours at distance ≥
//     D(p_i, p_k) — i.e. how near p_i is relative to current neighbours.
type BackLinkInputs struct {
	SelfCapacityRank float64
	PeerCapacityRank float64
	PeerDistanceRank float64
}

// BackLinkProbability is the acceptance probability for a backward
// connection request:
//
//	PB_k = rc_k² · rc_i + (1 − rc_k²) · rd_i
//
// Powerful peers (high rc_k) admit by capacity; weak peers admit by
// proximity. Inputs are clamped to [0, 1].
func BackLinkProbability(in BackLinkInputs) float64 {
	rck := clamp01(in.SelfCapacityRank)
	rci := clamp01(in.PeerCapacityRank)
	rdi := clamp01(in.PeerDistanceRank)
	w := rck * rck
	return w*rci + (1-w)*rdi
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// DefaultFallbackAccept is the paper's pb: when the PB_k draw rejects, the
// back link is still set up with this probability, controlling the ratio of
// outgoing to incoming links ("In our implementation, we set it with a value
// 0.5").
const DefaultFallbackAccept = 0.5

// Ranks computes the three back-link ranking inputs from raw neighbour data.
// selfCap is p_k's capacity, peerCap is the requester's capacity, peerDist is
// the requester's distance from p_k, and neighbors lists p_k's current
// neighbours as (capacity, distance-from-p_k) candidates. With no neighbours
// all ranks are 1 (accept).
func Ranks(selfCap, peerCap, peerDist float64, neighbors []Candidate) BackLinkInputs {
	if len(neighbors) == 0 {
		return BackLinkInputs{SelfCapacityRank: 1, PeerCapacityRank: 1, PeerDistanceRank: 1}
	}
	var selfGE, peerGE, distGE int
	for _, n := range neighbors {
		if n.Capacity <= selfCap {
			selfGE++
		}
		if n.Capacity <= peerCap {
			peerGE++
		}
		if n.Distance >= peerDist {
			distGE++
		}
	}
	n := float64(len(neighbors))
	return BackLinkInputs{
		SelfCapacityRank: float64(selfGE) / n,
		PeerCapacityRank: float64(peerGE) / n,
		PeerDistanceRank: float64(distGE) / n,
	}
}

// AcceptBackLink is the back-link rule of Section 3.3 at a peer p_k of
// capacity self: one draw against PB_k, ranked over p_k's current
// neighbours (the requester not among them), and on rejection one more
// against the fallback pb.
func AcceptBackLink(self float64, requester Candidate, neighbors []Candidate, fallback float64, rng *rand.Rand) bool {
	pb := BackLinkProbability(Ranks(self, requester.Capacity, requester.Distance, neighbors))
	return rng.Float64() < pb || rng.Float64() < fallback
}
