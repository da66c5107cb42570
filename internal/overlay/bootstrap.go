package overlay

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"groupcast/internal/core"
	"groupcast/internal/metrics"
	"groupcast/internal/peer"
)

// Message-counter names used by the bootstrap protocol.
const (
	CtrProbe        = "overlay.probe"
	CtrProbeResp    = "overlay.probe_resp"
	CtrBackRequest  = "overlay.back_request"
	CtrBackAccepted = "overlay.back_accepted"
)

// BootstrapConfig parameterizes the utility-aware topology construction
// protocol of Section 3.3.
type BootstrapConfig struct {
	// HalfSizeMin/Max bound the per-join |BD_i| = |BR_i| half-list size; the
	// paper's 5 ≤ |B_i| ≤ 8 corresponds to half sizes of 3-4.
	HalfSizeMin int
	HalfSizeMax int
	// QuotaBase and QuotaSlope set a joining peer's connection quota:
	// quota = QuotaBase + QuotaSlope·log10(capacity). The paper states peers
	// maintain a capacity-dependent number of connections without fixing the
	// formula; this log-linear rule matches Table 1's decade capacity levels.
	QuotaBase  float64
	QuotaSlope float64
	// FallbackAccept is the paper's pb: the probability a back-connection is
	// accepted anyway after the PB_k draw rejects it.
	FallbackAccept float64
}

// DefaultBootstrapConfig returns the values used in the paper's evaluation
// (pb = 0.5) with our quota resolution of the unspecified connection count.
func DefaultBootstrapConfig() BootstrapConfig {
	return BootstrapConfig{
		HalfSizeMin:    3,
		HalfSizeMax:    4,
		QuotaBase:      4,
		QuotaSlope:     2,
		FallbackAccept: core.DefaultFallbackAccept,
	}
}

func (c BootstrapConfig) validate() error {
	switch {
	case c.HalfSizeMin < 1 || c.HalfSizeMax < c.HalfSizeMin:
		return errors.New("overlay: invalid bootstrap half sizes")
	case c.QuotaBase < 1:
		return errors.New("overlay: quota base must be >= 1")
	case c.QuotaSlope < 0:
		return errors.New("overlay: negative quota slope")
	case c.FallbackAccept < 0 || c.FallbackAccept > 1:
		return errors.New("overlay: fallback accept outside [0,1]")
	}
	return nil
}

// Quota returns the connection quota for a peer of the given capacity.
func (c BootstrapConfig) Quota(cap peer.Capacity) int {
	q := c.QuotaBase
	if cap > 1 {
		q += c.QuotaSlope * math.Log10(float64(cap))
	}
	return int(q)
}

// Builder incrementally constructs a GroupCast overlay by processing peer
// joins through the host cache, probing, utility-based neighbour selection
// (Eq. 6), and the back-link protocol.
type Builder struct {
	g       *Graph
	hc      *HostCache
	cfg     BootstrapConfig
	rng     *rand.Rand
	ctr     *metrics.Counters
	rlevels []float64
}

// NewBuilder returns a builder over an empty overlay graph. The counters
// argument may be nil; pass one to tally protocol messages.
func NewBuilder(uni *Universe, cfg BootstrapConfig, rng *rand.Rand, ctr *metrics.Counters) (*Builder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g, err := NewGraph(uni)
	if err != nil {
		return nil, err
	}
	if ctr == nil {
		ctr = metrics.NewCounters()
	}
	rl := make([]float64, uni.N())
	for i := range rl {
		rl[i] = 0.5 // pre-join default: assume median
	}
	return &Builder{g: g, hc: NewHostCache(uni), cfg: cfg, rng: rng, ctr: ctr, rlevels: rl}, nil
}

// Graph returns the overlay under construction.
func (b *Builder) Graph() *Graph { return b.g }

// HostCache exposes the bootstrap cache (for churn experiments).
func (b *Builder) HostCache() *HostCache { return b.hc }

// Counters returns the protocol message tallies.
func (b *Builder) Counters() *metrics.Counters { return b.ctr }

// ResourceLevel returns peer i's estimated resource level r_i, learned from
// the capacities sampled during its join.
func (b *Builder) ResourceLevel(i int) float64 { return b.rlevels[i] }

// Join runs the Section 3.3 join protocol for peer i:
//
//  1. query the host cache for B_i = BD_i ∪ BR_i,
//  2. probe every bootstrap peer for its neighbour list and compile the
//     candidate list LC_i with occurrence frequencies,
//  3. estimate r_i from the sampled capacities,
//  4. select up to quota(C_i) neighbours with probability proportional to
//     the Eq. 6 utility (occurrence frequency substituting capacity),
//  5. open forwarding connections and run the back-link acceptance protocol.
func (b *Builder) Join(i int) error {
	if i < 0 || i >= b.g.N() {
		return fmt.Errorf("overlay: join of unknown peer %d", i)
	}
	if b.g.Alive(i) {
		return fmt.Errorf("overlay: peer %d joined twice", i)
	}
	b.g.SetAlive(i)

	half := b.cfg.HalfSizeMin
	if b.cfg.HalfSizeMax > b.cfg.HalfSizeMin {
		half += b.rng.Intn(b.cfg.HalfSizeMax - b.cfg.HalfSizeMin + 1)
	}
	boots := b.hc.Bootstrap(i, half, b.rng)
	defer b.hc.Register(i)
	if len(boots) == 0 {
		return nil // first peer: nothing to connect to yet
	}

	chosen, err := b.choose(i, b.probe(i, boots), nil, b.cfg.Quota(b.g.Universe().Caps[i]), b.rng)
	if err != nil {
		return fmt.Errorf("overlay: neighbour selection for %d: %w", i, err)
	}

	for _, k := range chosen {
		if !b.g.Alive(k) {
			continue
		}
		if err := b.g.AddEdge(i, k); err != nil {
			return err
		}
		b.backLink(i, k)
	}
	return nil
}

// probe asks each live bootstrap peer for its neighbour list. A reply
// carries each neighbour's identifier quadruplet, so i learns the
// candidates' capacities and coordinates; probe returns how often each
// candidate appeared (knowing pk itself counts as one appearance).
func (b *Builder) probe(i int, boots []int) map[int]int {
	freq := make(map[int]int)
	for _, pk := range boots {
		if !b.g.Alive(pk) {
			continue
		}
		b.ctr.Inc(CtrProbe)
		b.ctr.Inc(CtrProbeResp)
		freq[pk]++
		for _, nb := range b.g.Neighbors(pk) {
			if nb != i {
				freq[nb]++
			}
		}
	}
	return freq
}

// choose runs the Section 3.3 neighbour choice for peer i over the probed
// candidates that keep admits (all when nil) and records i's resource
// level. The candidates are sorted first: the draw consumes the rng per
// index, so map order would leak into the overlay. It returns the chosen
// peers.
func (b *Builder) choose(i int, freq map[int]int, keep func(j int) bool, quota int, rng *rand.Rand) ([]int, error) {
	candIDs := make([]int, 0, len(freq))
	for j := range freq {
		if keep == nil || keep(j) {
			candIDs = append(candIDs, j)
		}
	}
	if len(candIDs) == 0 {
		return nil, core.ErrNoCandidates
	}
	sort.Ints(candIDs)
	uni := b.g.Universe()
	probed := make([]core.Probed, len(candIDs))
	for idx, j := range candIDs {
		probed[idx] = core.Probed{Candidate: core.Candidate{Capacity: float64(uni.Caps[j]), Distance: uni.Dist(i, j)}, Freq: freq[j]}
	}
	chosen, r, err := core.SelectNeighbors(float64(uni.Caps[i]), probed, quota, rng)
	b.rlevels[i] = r
	for x, idx := range chosen {
		chosen[x] = candIDs[idx]
	}
	return chosen, err
}

// backLink runs the back-connection protocol: peer k decides whether to add
// the requester i as its own forwarding neighbour (core.AcceptBackLink).
func (b *Builder) backLink(i, k int) {
	b.ctr.Inc(CtrBackRequest)
	uni := b.g.Universe()
	nbrs := b.g.Neighbors(k)
	nbrCands := make([]core.Candidate, 0, len(nbrs))
	for _, nb := range nbrs {
		if nb == i {
			continue
		}
		nbrCands = append(nbrCands, core.Candidate{
			Capacity: float64(uni.Caps[nb]),
			Distance: uni.Dist(k, nb),
		})
	}
	requester := core.Candidate{Capacity: float64(uni.Caps[i]), Distance: uni.Dist(k, i)}
	if core.AcceptBackLink(float64(uni.Caps[k]), requester, nbrCands, b.cfg.FallbackAccept, b.rng) {
		if err := b.g.AddEdge(k, i); err == nil {
			b.ctr.Inc(CtrBackAccepted)
		}
	}
}

// Leave removes peer i gracefully: its neighbours drop it and the host cache
// forgets it.
func (b *Builder) Leave(i int) {
	b.g.RemovePeer(i)
	b.hc.Unregister(i)
}

// Fail removes peer i abruptly. Structurally identical to Leave on the
// graph; maintenance (heartbeats) is responsible for detection in the live
// runtime, so the distinction matters only there and in churn accounting.
func (b *Builder) Fail(i int) {
	b.g.RemovePeer(i)
	b.hc.Unregister(i)
}

// BuildGroupCast joins every peer of the universe in index order and returns
// the finished overlay. This is the batch entry point used by the
// experiments; churn studies drive a Builder through a sim.Engine instead.
func BuildGroupCast(uni *Universe, cfg BootstrapConfig, rng *rand.Rand, ctr *metrics.Counters) (*Graph, *Builder, error) {
	b, err := NewBuilder(uni, cfg, rng, ctr)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < uni.N(); i++ {
		if err := b.Join(i); err != nil {
			return nil, nil, err
		}
	}
	return b.g, b, nil
}
