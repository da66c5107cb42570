package core

import (
	"container/heap"
	"errors"
	"math"
	"math/rand"

	"groupcast/internal/peer"
)

// ErrBadWeights is returned when a weighted selection gets invalid weights.
var ErrBadWeights = errors.New("core: weights must be non-negative, finite, and match the item count")

type esItem struct {
	index int
	key   float64
}

type esHeap []esItem // min-heap on key

func (h esHeap) Len() int           { return len(h) }
func (h esHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h esHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *esHeap) Push(x any)        { *h = append(*h, x.(esItem)) }
func (h *esHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// SampleWithoutReplacement draws up to k distinct indices with probability
// proportional to their weights, using the Efraimidis–Spirakis reservoir
// scheme (each item gets key u^(1/w); the k largest keys win). Zero-weight
// items are never selected unless every weight is zero, in which case the
// draw is uniform. The returned order is arbitrary.
func SampleWithoutReplacement(weights []float64, k int, rng *rand.Rand) ([]int, error) {
	if len(weights) == 0 {
		return nil, ErrNoCandidates
	}
	if k <= 0 {
		return nil, nil
	}
	allZero := true
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, ErrBadWeights
		}
		if w > 0 {
			allZero = false
		}
	}
	if k > len(weights) {
		k = len(weights)
	}
	h := make(esHeap, 0, k)
	for i, w := range weights {
		if allZero {
			w = 1
		}
		if w == 0 {
			continue
		}
		key := math.Pow(rng.Float64(), 1/w)
		if len(h) < k {
			heap.Push(&h, esItem{index: i, key: key})
		} else if key > h[0].key {
			h[0] = esItem{index: i, key: key}
			heap.Fix(&h, 0)
		}
	}
	out := make([]int, len(h))
	for i, it := range h {
		out[i] = it.index
	}
	return out, nil
}

// SelectByPreference scores candidates with the utility function for
// resource level r and draws up to k of them without replacement,
// probability proportional to Selection Preference. It returns candidate
// indices.
func SelectByPreference(r float64, cands []Candidate, k int, rng *rand.Rand) ([]int, error) {
	prefs, err := SelectionPreferencesFor(r, cands)
	if err != nil {
		return nil, err
	}
	return SampleWithoutReplacement(prefs, k, rng)
}

// Probed is one entry of a joining peer's candidate list LC_i (Section
// 3.3): the candidate, with its advertised capacity, and how many probe
// replies named it.
type Probed struct {
	Candidate
	Freq int
}

// SelectNeighbors is the neighbour choice of a peer of capacity self
// joining or repairing the overlay (Section 3.3): r̂ is estimated from the
// probed capacities, every candidate is scored by Eq. 6 — Selection
// Preference with occurrence frequency in place of capacity — and up to
// quota are drawn without replacement. It returns the chosen indices into
// probed and r̂.
func SelectNeighbors(self float64, probed []Probed, quota int, rng *rand.Rand) ([]int, float64, error) {
	sample := make([]peer.Capacity, len(probed))
	cands := make([]Candidate, len(probed))
	for i, p := range probed {
		sample[i] = peer.Capacity(p.Capacity)
		cands[i] = Candidate{Capacity: float64(p.Freq), Distance: p.Distance}
	}
	r := peer.EstimateResourceLevel(peer.Capacity(self), sample)
	chosen, err := SelectByPreference(r, cands, quota, rng)
	return chosen, r, err
}

// Fanout is the Selective Service Announcement fan-out over n neighbours:
// ⌈fraction·n⌉, and at least one.
func Fanout(fraction float64, n int) int {
	k := int(math.Ceil(fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// SelectForwarders is the SSA forwarding choice of a peer at resource level
// r (Section 3.2): all of its neighbours when the fan-out covers them,
// otherwise Fanout of them drawn by Selection Preference. It returns
// indices into nbrs.
func SelectForwarders(r float64, nbrs []Candidate, fraction float64, rng *rand.Rand) ([]int, error) {
	k := Fanout(fraction, len(nbrs))
	if k < len(nbrs) {
		return SelectByPreference(r, nbrs, k, rng)
	}
	all := make([]int, len(nbrs))
	for i := range all {
		all[i] = i
	}
	return all, nil
}
