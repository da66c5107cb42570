// Package netsim models the underlying IP network of the GroupCast
// experiments: a GT-ITM-style transit-stub router topology with weighted
// (latency) links, shortest-path unicast routing, peer attachment to stub
// routers, and IP multicast trees obtained by merging unicast routes — the
// same substrate the paper builds with the GT-ITM package [34].
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// RouterID identifies a router in the topology.
type RouterID int32

// edge is one directed adjacency entry (links are symmetric: both directions
// are always present with equal latency).
type edge struct {
	to  RouterID
	lat float64 // milliseconds
}

// LatencyRange is a uniform latency range [Lo, Hi] in milliseconds.
type LatencyRange struct {
	Lo float64
	Hi float64
}

func (r LatencyRange) sample(rng *rand.Rand) float64 {
	if r.Hi <= r.Lo {
		return quantize(r.Lo)
	}
	return quantize(r.Lo + rng.Float64()*(r.Hi-r.Lo))
}

// quantize rounds a latency to a multiple of 1/128 ms. Dyadic latencies make
// path-latency sums exact in floating point, so distances are exactly
// symmetric and the triangle inequality holds without epsilon tolerances.
func quantize(ms float64) float64 {
	return math.Round(ms*128) / 128
}

// Config parameterizes transit-stub topology generation.
type Config struct {
	// TransitDomains is the number of transit (backbone) domains.
	TransitDomains int
	// TransitNodesPerDomain is the router count inside each transit domain.
	TransitNodesPerDomain int
	// StubDomainsPerTransitNode is how many stub domains hang off each
	// transit router.
	StubDomainsPerTransitNode int
	// StubNodesPerDomain is the router count inside each stub domain.
	StubNodesPerDomain int

	// InterTransitLat is the latency of links between transit domains.
	InterTransitLat LatencyRange
	// IntraTransitLat is the latency of links inside a transit domain.
	IntraTransitLat LatencyRange
	// TransitStubLat is the latency of transit-to-stub attachment links.
	TransitStubLat LatencyRange
	// IntraStubLat is the latency of links inside a stub domain.
	IntraStubLat LatencyRange

	// IntraTransitExtraEdgeProb adds redundant intra-transit edges beyond the
	// connecting spanning tree with this per-pair probability.
	IntraTransitExtraEdgeProb float64
	// IntraStubExtraEdgeProb likewise for stub domains.
	IntraStubExtraEdgeProb float64

	// Seed drives the deterministic generator.
	Seed int64
}

// DefaultConfig mirrors the scale of the paper's GT-ITM topologies: ~600
// routers in 4 transit domains.
func DefaultConfig() Config {
	return Config{
		TransitDomains:            4,
		TransitNodesPerDomain:     8,
		StubDomainsPerTransitNode: 3,
		StubNodesPerDomain:        6,
		InterTransitLat:           LatencyRange{Lo: 30, Hi: 60},
		IntraTransitLat:           LatencyRange{Lo: 10, Hi: 25},
		TransitStubLat:            LatencyRange{Lo: 4, Hi: 10},
		IntraStubLat:              LatencyRange{Lo: 1, Hi: 4},
		IntraTransitExtraEdgeProb: 0.3,
		IntraStubExtraEdgeProb:    0.2,
		Seed:                      1,
	}
}

// Validate reports whether the configuration describes a buildable topology.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains < 1:
		return errors.New("netsim: need at least one transit domain")
	case c.TransitNodesPerDomain < 1:
		return errors.New("netsim: need at least one transit node per domain")
	case c.StubDomainsPerTransitNode < 0 || c.StubNodesPerDomain < 0:
		return errors.New("netsim: negative stub sizes")
	case (c.StubDomainsPerTransitNode > 0) != (c.StubNodesPerDomain > 0):
		return errors.New("netsim: stub domain count and size must both be zero or both positive")
	}
	return nil
}

// Network is a generated transit-stub router topology with all-pairs
// shortest-path routing state.
type Network struct {
	cfg         Config
	adj         [][]edge
	stubRouters []RouterID
	transit     []RouterID
	numLinks    int

	// dist[u][v] is the shortest-path latency; nextHop[u][v] the first router
	// after u on that path (or v's value for u==v).
	dist    [][]float32
	nextHop [][]int32
}

// Generate builds a transit-stub topology and precomputes routing tables.
func Generate(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nTransit := cfg.TransitDomains * cfg.TransitNodesPerDomain
	nStub := nTransit * cfg.StubDomainsPerTransitNode * cfg.StubNodesPerDomain
	n := nTransit + nStub
	nw := &Network{
		cfg: cfg,
		adj: make([][]edge, n),
	}

	// Transit routers occupy IDs [0, nTransit).
	domains := make([][]RouterID, cfg.TransitDomains)
	id := RouterID(0)
	for d := range domains {
		domains[d] = make([]RouterID, cfg.TransitNodesPerDomain)
		for i := range domains[d] {
			domains[d][i] = id
			nw.transit = append(nw.transit, id)
			id++
		}
		nw.connectDomain(rng, domains[d], cfg.IntraTransitLat, cfg.IntraTransitExtraEdgeProb)
	}

	// Inter-transit-domain links: a ring over the domains for connectivity,
	// plus a random chord per non-adjacent domain pair with probability 0.5.
	// Each domain-level link is realised between random routers of the two
	// domains.
	for d := 0; d+1 < cfg.TransitDomains; d++ {
		nw.addLink(pick(rng, domains[d]), pick(rng, domains[d+1]), cfg.InterTransitLat.sample(rng))
	}
	if cfg.TransitDomains > 2 {
		nw.addLink(pick(rng, domains[cfg.TransitDomains-1]), pick(rng, domains[0]), cfg.InterTransitLat.sample(rng))
	}
	for d := 0; d < cfg.TransitDomains; d++ {
		for e := d + 2; e < cfg.TransitDomains; e++ {
			if d == 0 && e == cfg.TransitDomains-1 {
				continue // already linked by the ring closure
			}
			if rng.Float64() < 0.5 {
				nw.addLink(pick(rng, domains[d]), pick(rng, domains[e]), cfg.InterTransitLat.sample(rng))
			}
		}
	}

	// Stub domains: IDs [nTransit, n), attached to their transit router.
	for _, tr := range nw.transit {
		for s := 0; s < cfg.StubDomainsPerTransitNode; s++ {
			stub := make([]RouterID, cfg.StubNodesPerDomain)
			for i := range stub {
				stub[i] = id
				nw.stubRouters = append(nw.stubRouters, id)
				id++
			}
			nw.connectDomain(rng, stub, cfg.IntraStubLat, cfg.IntraStubExtraEdgeProb)
			nw.addLink(tr, pick(rng, stub), cfg.TransitStubLat.sample(rng))
		}
	}
	if nStub == 0 {
		// Degenerate topologies still need attachment points.
		nw.stubRouters = append(nw.stubRouters, nw.transit...)
	}

	if err := nw.computeRoutes(); err != nil {
		return nil, err
	}
	return nw, nil
}

func pick(rng *rand.Rand, ids []RouterID) RouterID {
	return ids[rng.Intn(len(ids))]
}

// connectDomain wires the routers of one domain: a random spanning tree for
// connectivity plus extra edges with probability extraProb per pair.
func (nw *Network) connectDomain(rng *rand.Rand, ids []RouterID, lat LatencyRange, extraProb float64) {
	if len(ids) <= 1 {
		return
	}
	perm := rng.Perm(len(ids))
	for i := 1; i < len(perm); i++ {
		// Attach each node to a random earlier node in the permutation: a
		// uniform random recursive tree.
		parent := perm[rng.Intn(i)]
		nw.addLink(ids[perm[i]], ids[parent], lat.sample(rng))
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if rng.Float64() < extraProb && !nw.hasLink(ids[i], ids[j]) {
				nw.addLink(ids[i], ids[j], lat.sample(rng))
			}
		}
	}
}

func (nw *Network) addLink(a, b RouterID, lat float64) {
	if a == b || nw.hasLink(a, b) {
		return
	}
	nw.adj[a] = append(nw.adj[a], edge{to: b, lat: lat})
	nw.adj[b] = append(nw.adj[b], edge{to: a, lat: lat})
	nw.numLinks++
}

func (nw *Network) hasLink(a, b RouterID) bool {
	for _, e := range nw.adj[a] {
		if e.to == b {
			return true
		}
	}
	return false
}

// NumRouters returns the router count.
func (nw *Network) NumRouters() int { return len(nw.adj) }

// String summarizes the topology.
func (nw *Network) String() string {
	return fmt.Sprintf("transit-stub network: %d routers (%d transit, %d stub), %d links",
		nw.NumRouters(), len(nw.transit), len(nw.stubRouters), nw.numLinks)
}
