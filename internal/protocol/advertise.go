// Package protocol implements GroupCast's group communication protocol over
// an overlay graph: service announcement (the utility-aware Selective Service
// Announcement scheme and the non-selective DVMRP/Scattercast-style NSSA
// baseline, Sections 2.2 and 3.2), subscription along reverse announcement
// paths with TTL-scoped ripple search fallback, spanning tree construction
// and maintenance, and payload dissemination.
//
// The graph drivers here are the simulator behind the paper's figures and
// a reference to score the live node against; the rules they apply are
// shared with it. The SSA forwarding choice is core.SelectForwarders, and
// internal/node calls the pure succession rules (DeputyRoster, the
// promotion stagger and the root order, succession.go) as they are.
package protocol

import (
	"errors"
	"fmt"
	"math/rand"

	"groupcast/internal/core"
	"groupcast/internal/metrics"
	"groupcast/internal/overlay"
	"groupcast/internal/peer"
)

// Message-counter names used by the group communication protocol.
const (
	CtrAdvertisement = "protocol.advertisement"
	CtrSubscribeJoin = "protocol.subscribe_join"
	CtrSearch        = "protocol.search"
	CtrPayload       = "protocol.payload"
)

// Scheme selects the service announcement algorithm.
type Scheme int

const (
	// SSA is the Selective Service Announcement scheme: each peer forwards
	// the advertisement to a utility-chosen fraction of its neighbours.
	SSA Scheme = iota + 1
	// SSARandom is the basic framework's variant: the forwarded subset is
	// chosen uniformly at random (Section 2.2's "random strategy").
	SSARandom
	// NSSA is the non-selective baseline: every peer forwards the
	// advertisement to all of its neighbours (scoped flooding).
	NSSA
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SSA:
		return "SSA"
	case SSARandom:
		return "SSA-random"
	case NSSA:
		return "NSSA"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// AdvertiseConfig parameterizes a service announcement round.
type AdvertiseConfig struct {
	// Scheme is the forwarding algorithm.
	Scheme Scheme
	// TTL bounds the advertisement depth.
	TTL int
	// Fraction is the share of a peer's neighbours that receive the
	// forwarded SSA advertisement ("a pre-specified fraction of its
	// neighbors"); ignored by NSSA.
	Fraction float64
}

// DefaultAdvertiseConfig uses the values behind the paper's evaluation: SSA
// forwarding to 40% of neighbours with TTL 7.
func DefaultAdvertiseConfig() AdvertiseConfig {
	return AdvertiseConfig{Scheme: SSA, TTL: 7, Fraction: 0.4}
}

func (c AdvertiseConfig) validate() error {
	switch {
	case c.Scheme != SSA && c.Scheme != SSARandom && c.Scheme != NSSA:
		return errors.New("protocol: unknown advertisement scheme")
	case c.TTL < 1:
		return errors.New("protocol: TTL must be >= 1")
	case c.Scheme != NSSA && (c.Fraction <= 0 || c.Fraction > 1):
		return errors.New("protocol: fraction must be in (0, 1]")
	}
	return nil
}

// Advertisement is the outcome of one announcement round: which peers
// received the group advertisement and through which upstream neighbour
// (the reverse path used by subscriptions).
type Advertisement struct {
	GroupID    string
	Rendezvous int
	// FromHop maps each peer that received the advertisement to the
	// neighbour it first received it from. The rendezvous is present with
	// FromHop == itself.
	FromHop map[int]int
	// Messages counts every advertisement transmission, including duplicates
	// that receivers drop.
	Messages int
}

// Received reports whether peer p got the advertisement.
func (a *Advertisement) Received(p int) bool {
	_, ok := a.FromHop[p]
	return ok
}

// NumReceived returns how many peers received the advertisement.
func (a *Advertisement) NumReceived() int { return len(a.FromHop) }

// ResourceLevels supplies each peer's resource level estimate for utility
// forwarding decisions (e.g. overlay.Builder.ResourceLevel, or exact levels
// for baseline overlays).
type ResourceLevels func(p int) float64

// ExactLevels returns a ResourceLevels function computed exactly from the
// universe's capacities — the oracle used with baseline overlays that have no
// bootstrap estimate.
func ExactLevels(uni *overlay.Universe) ResourceLevels {
	levels := peer.ResourceLevels(uni.Caps)
	for i := range levels {
		levels[i] = peer.ClampResourceLevel(levels[i])
	}
	return func(p int) float64 { return levels[p] }
}

// Advertise runs one announcement round from the rendezvous point over the
// overlay and returns the resulting advertisement state. rlevels may be nil
// for NSSA (it is only consulted by utility-aware forwarding). The counters
// argument may be nil.
func Advertise(g *overlay.Graph, rendezvous int, rlevels ResourceLevels, cfg AdvertiseConfig,
	rng *rand.Rand, ctr *metrics.Counters) (*Advertisement, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !g.Alive(rendezvous) {
		return nil, fmt.Errorf("protocol: rendezvous %d not in overlay", rendezvous)
	}
	if cfg.Scheme == SSA && rlevels == nil {
		return nil, errors.New("protocol: SSA requires resource levels")
	}
	if ctr == nil {
		ctr = metrics.NewCounters()
	}
	adv := &Advertisement{
		Rendezvous: rendezvous,
		FromHop:    map[int]int{rendezvous: rendezvous},
	}
	type hop struct {
		peer int
		ttl  int
	}
	queue := []hop{{peer: rendezvous, ttl: cfg.TTL}}
	uni := g.Universe()
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.ttl <= 0 {
			continue
		}
		targets := forwardTargets(g, uni, h.peer, adv.FromHop[h.peer], rlevels, cfg, rng)
		for _, nb := range targets {
			adv.Messages++
			ctr.Inc(CtrAdvertisement)
			if _, dup := adv.FromHop[nb]; dup {
				continue // receivedAdvertising hash: duplicate dropped
			}
			adv.FromHop[nb] = h.peer
			queue = append(queue, hop{peer: nb, ttl: h.ttl - 1})
		}
	}
	return adv, nil
}

// forwardTargets picks the neighbours peer k forwards the advertisement to.
func forwardTargets(g *overlay.Graph, uni *overlay.Universe, k, upstream int,
	rlevels ResourceLevels, cfg AdvertiseConfig, rng *rand.Rand) []int {
	nbrs := g.Neighbors(k)
	// Never bounce the advertisement straight back.
	filtered := nbrs[:0]
	for _, nb := range nbrs {
		if nb != upstream || k == upstream {
			filtered = append(filtered, nb)
		}
	}
	nbrs = filtered
	if len(nbrs) == 0 {
		return nil
	}
	switch cfg.Scheme {
	case NSSA:
		return nbrs
	case SSARandom:
		fanout := core.Fanout(cfg.Fraction, len(nbrs))
		if fanout >= len(nbrs) {
			return nbrs
		}
		perm := rng.Perm(len(nbrs))
		out := make([]int, fanout)
		for i := range out {
			out[i] = nbrs[perm[i]]
		}
		return out
	}
	// SSA: the utility-aware choice of Section 3.2.
	cands := make([]core.Candidate, len(nbrs))
	for i, nb := range nbrs {
		cands[i] = core.Candidate{
			Capacity: float64(uni.Caps[nb]),
			Distance: uni.Dist(k, nb),
		}
	}
	idxs, err := core.SelectForwarders(rlevels(k), cands, cfg.Fraction, rng)
	if err != nil {
		return nil
	}
	out := make([]int, len(idxs))
	for i, idx := range idxs {
		out[i] = nbrs[idx]
	}
	return out
}
