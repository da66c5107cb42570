package protocol

import (
	"errors"
	"fmt"
	"math/rand"

	"groupcast/internal/metrics"
	"groupcast/internal/overlay"
)

// Tree is a group communication spanning tree rooted at the rendezvous
// point. Interior nodes may be pure forwarders (on an advertisement reverse
// path) rather than group members; members are the actual subscribers.
type Tree struct {
	Rendezvous int
	// Parent maps every non-root tree node to its parent toward the root.
	Parent map[int]int
	// Children is the inverse of Parent.
	Children map[int][]int
	// Members marks the subscribed peers (the rendezvous is a member).
	Members map[int]bool
}

// NewTree returns a tree containing only the rendezvous.
func NewTree(rendezvous int) *Tree {
	return &Tree{
		Rendezvous: rendezvous,
		Parent:     make(map[int]int),
		Children:   make(map[int][]int),
		Members:    map[int]bool{rendezvous: true},
	}
}

// Contains reports whether p is on the tree (member or forwarder).
func (t *Tree) Contains(p int) bool {
	if p == t.Rendezvous {
		return true
	}
	_, ok := t.Parent[p]
	return ok
}

// Size returns the number of peers on the tree.
func (t *Tree) Size() int { return len(t.Parent) + 1 }

// NumMembers returns the number of subscribed peers.
func (t *Tree) NumMembers() int { return len(t.Members) }

// attach links child under parent. The parent must already be on the tree
// and the child must not be.
func (t *Tree) attach(child, parent int) error {
	if t.Contains(child) {
		return fmt.Errorf("protocol: %d already on tree", child)
	}
	if !t.Contains(parent) {
		return fmt.Errorf("protocol: parent %d not on tree", parent)
	}
	t.Parent[child] = parent
	t.Children[parent] = append(t.Children[parent], child)
	return nil
}

// Validate checks the structural invariants: acyclic, all parents present,
// children consistent, every member on the tree.
func (t *Tree) Validate() error {
	for c, p := range t.Parent {
		if c == t.Rendezvous {
			return errors.New("protocol: rendezvous has a parent")
		}
		if p != t.Rendezvous {
			if _, ok := t.Parent[p]; !ok {
				return fmt.Errorf("protocol: dangling parent %d of %d", p, c)
			}
		}
	}
	// Walk to the root from every node with a step budget: cycles exceed it.
	limit := len(t.Parent) + 1
	for c := range t.Parent {
		cur := c
		steps := 0
		for cur != t.Rendezvous {
			next, ok := t.Parent[cur]
			if !ok {
				return fmt.Errorf("protocol: %d cannot reach the root", c)
			}
			cur = next
			if steps++; steps > limit {
				return fmt.Errorf("protocol: cycle through %d", c)
			}
		}
	}
	for p, kids := range t.Children {
		for _, k := range kids {
			if t.Parent[k] != p {
				return fmt.Errorf("protocol: children list of %d disagrees with Parent", p)
			}
		}
	}
	for m := range t.Members {
		if !t.Contains(m) {
			return fmt.Errorf("protocol: member %d off tree", m)
		}
	}
	return nil
}

// SubscribeConfig parameterizes the subscription step.
type SubscribeConfig struct {
	// SearchTTL is the ripple search depth used when the subscriber never
	// received the advertisement (the paper sets it to 2).
	SearchTTL int
}

// DefaultSubscribeConfig uses the paper's TTL of 2.
func DefaultSubscribeConfig() SubscribeConfig { return SubscribeConfig{SearchTTL: 2} }

// SubscribeResult reports how one subscription went.
type SubscribeResult struct {
	// OK is false when neither the advertisement nor the ripple search could
	// connect the subscriber.
	OK bool
	// UsedSearch is true when the subscriber had not received the
	// advertisement and fell back to the ripple search.
	UsedSearch bool
	// SearchLatency is the service lookup latency in ms: the time for the
	// ripple search to find a peer that received the advertisement (zero for
	// reverse-path subscriptions — those peers already know the service).
	SearchLatency float64
	// SearchMessages counts ripple search traffic.
	SearchMessages int
	// JoinMessages counts join messages travelling the reverse paths.
	JoinMessages int
}

// Subscribe connects subscriber s to the group's spanning tree (Section 2.2,
// Step 3):
//
//   - if s received the advertisement, the join message travels the reverse
//     advertisement path until it reaches the tree;
//   - otherwise s ripple-searches its neighbourhood (TTL cfg.SearchTTL) for a
//     peer that received the advertisement, attaches through the discovery
//     path, and continues along that peer's reverse path.
//
// Peers on the join path become forwarders; s becomes a member.
func Subscribe(g *overlay.Graph, adv *Advertisement, t *Tree, s int,
	cfg SubscribeConfig, ctr *metrics.Counters) SubscribeResult {
	if ctr == nil {
		ctr = metrics.NewCounters()
	}
	var res SubscribeResult
	if !g.Alive(s) {
		return res
	}
	if t.Contains(s) {
		t.Members[s] = true
		res.OK = true
		return res
	}

	// Build the attach path: s, then hops toward a tree node.
	var path []int
	if p, ok := aliveReversePath(g, adv, s); ok {
		path = p
	} else {
		res.UsedSearch = true
		// A usable access point either already sits on the tree or has an
		// intact reverse advertisement path.
		pred := func(p int) bool {
			if t.Contains(p) {
				return true
			}
			_, ok := aliveReversePath(g, adv, p)
			return ok
		}
		sr := overlay.RippleSearch(g, s, cfg.SearchTTL, pred)
		res.SearchMessages = sr.Messages
		ctr.Add(CtrSearch, int64(sr.Messages))
		if !sr.Found {
			return res
		}
		res.SearchLatency = sr.Latency
		// The join travels the discovery path s → … → found over real
		// overlay links, then continues along the found peer's reverse
		// advertisement path to the rendezvous (unless the found peer is
		// already on the tree).
		path = append([]int{}, sr.Path...)
		if !t.Contains(sr.Peer) {
			path = append(path, reversePath(adv, sr.Peer)[1:]...)
		}
		path = simplifyPath(path)
	}

	// Walk the path rootward until we meet the tree, then attach the prefix
	// in reverse (tree-most first) so every attach has its parent present.
	cut := len(path) - 1 // index of first node already on the tree
	for i, p := range path {
		if t.Contains(p) {
			cut = i
			break
		}
	}
	for i := cut - 1; i >= 0; i-- {
		if err := t.attach(path[i], path[i+1]); err != nil {
			return res
		}
		res.JoinMessages++
		ctr.Inc(CtrSubscribeJoin)
	}
	t.Members[s] = true
	res.OK = true
	return res
}

// simplifyPath removes cycles from a node sequence: whenever a node repeats,
// the loop between its occurrences is cut out. This arises when a discovery
// path and a reverse advertisement path share intermediate nodes.
func simplifyPath(path []int) []int {
	pos := make(map[int]int, len(path))
	out := path[:0]
	for _, p := range path {
		if at, seen := pos[p]; seen {
			// Drop the loop: rewind to the first occurrence.
			for _, q := range out[at+1:] {
				delete(pos, q)
			}
			out = out[:at+1]
			continue
		}
		pos[p] = len(out)
		out = append(out, p)
	}
	return out
}

// reversePath walks the advertisement FromHop chain from p back to the
// rendezvous.
func reversePath(adv *Advertisement, p int) []int {
	path := []int{p}
	for p != adv.Rendezvous {
		p = adv.FromHop[p]
		path = append(path, p)
	}
	return path
}

// aliveReversePath returns p's reverse advertisement path when p received
// the advertisement and every hop of the chain is still alive; churn can
// invalidate recorded paths, in which case the subscriber falls back to the
// ripple search.
func aliveReversePath(g *overlay.Graph, adv *Advertisement, p int) ([]int, bool) {
	if !adv.Received(p) {
		return nil, false
	}
	path := reversePath(adv, p)
	for _, q := range path {
		if !g.Alive(q) {
			return nil, false
		}
	}
	return path, true
}

// BuildGroup advertises from the rendezvous and subscribes every peer in
// subscribers, returning the spanning tree, the advertisement, and the
// per-subscriber results.
func BuildGroup(g *overlay.Graph, rendezvous int, subscribers []int, rlevels ResourceLevels,
	acfg AdvertiseConfig, scfg SubscribeConfig, rng *rand.Rand,
	ctr *metrics.Counters) (*Tree, *Advertisement, []SubscribeResult, error) {
	adv, err := Advertise(g, rendezvous, rlevels, acfg, rng, ctr)
	if err != nil {
		return nil, nil, nil, err
	}
	t := NewTree(rendezvous)
	results := make([]SubscribeResult, 0, len(subscribers))
	for _, s := range subscribers {
		results = append(results, Subscribe(g, adv, t, s, scfg, ctr))
	}
	return t, adv, results, nil
}
