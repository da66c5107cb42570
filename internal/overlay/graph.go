// Package overlay implements the unstructured P2P overlay layer of
// GroupCast: the overlay graph, the Gnucleus-style host cache, the paper's
// utility-aware topology construction protocol (Section 3.3), the PLOD
// centralized power-law baseline, the scoped-flood service lookup, and
// epoch-based neighbourhood maintenance.
//
// The Builder is the simulator's driver of Section 3.3: it probes, joins and
// repairs peers on a Graph, but the neighbour choice and back-link
// acceptance it applies are core.SelectNeighbors and core.AcceptBackLink,
// the functions the live node calls too. The graph drivers stay as the
// simulator behind the paper's figures and as a reference to score the live
// node against.
package overlay

import (
	"errors"
	"fmt"
	"sort"

	"groupcast/internal/peer"
)

// Universe describes the peer population an overlay is built over: per-peer
// capacities and the distance estimate the utility function consumes (network
// coordinate distance in the paper; tests may use ground-truth latency).
type Universe struct {
	Caps []peer.Capacity
	// Dist estimates the distance between two peers in ms. It must be
	// symmetric and non-negative.
	Dist func(i, j int) float64
}

// N returns the population size.
func (u *Universe) N() int { return len(u.Caps) }

// Validate checks the universe is usable.
func (u *Universe) Validate() error {
	if u == nil || len(u.Caps) == 0 {
		return errors.New("overlay: empty universe")
	}
	if u.Dist == nil {
		return errors.New("overlay: nil distance function")
	}
	return nil
}

// Graph is a directed overlay graph over the peers of a universe. An edge
// i→j means i forwards messages to j ("outgoing/forwarding connection"); the
// reverse edge is the paper's "back link". Alive tracks membership so churn
// can remove peers without renumbering.
type Graph struct {
	uni   *Universe
	out   []map[int]struct{}
	in    []map[int]struct{}
	alive []bool
	edges int // directed edge count
}

// NewGraph returns an empty overlay over the universe with every peer dead
// (not yet joined).
func NewGraph(uni *Universe) (*Graph, error) {
	if err := uni.Validate(); err != nil {
		return nil, err
	}
	n := uni.N()
	g := &Graph{
		uni:   uni,
		out:   make([]map[int]struct{}, n),
		in:    make([]map[int]struct{}, n),
		alive: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		g.out[i] = make(map[int]struct{})
		g.in[i] = make(map[int]struct{})
	}
	return g, nil
}

// Universe returns the peer population this graph is built over.
func (g *Graph) Universe() *Universe { return g.uni }

// N returns the total peer population (alive or not).
func (g *Graph) N() int { return len(g.out) }

// SetAlive marks a peer present in the overlay.
func (g *Graph) SetAlive(i int) { g.alive[i] = true }

// Alive reports whether peer i is currently in the overlay.
func (g *Graph) Alive(i int) bool { return i >= 0 && i < len(g.alive) && g.alive[i] }

// NumAlive counts the peers currently in the overlay.
func (g *Graph) NumAlive() int {
	c := 0
	for _, a := range g.alive {
		if a {
			c++
		}
	}
	return c
}

// AlivePeers lists the peers currently in the overlay.
func (g *Graph) AlivePeers() []int {
	out := make([]int, 0, len(g.alive))
	for i, a := range g.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// AddEdge inserts the directed edge from→to. Self-loops and duplicate edges
// are ignored. Both endpoints must be alive.
func (g *Graph) AddEdge(from, to int) error {
	if from == to {
		return nil
	}
	if !g.Alive(from) || !g.Alive(to) {
		return fmt.Errorf("overlay: edge %d→%d touches a dead peer", from, to)
	}
	if _, dup := g.out[from][to]; dup {
		return nil
	}
	g.out[from][to] = struct{}{}
	g.in[to][from] = struct{}{}
	g.edges++
	return nil
}

// RemovePeer deletes a peer and all its incident edges (crash or departure).
func (g *Graph) RemovePeer(i int) {
	if !g.Alive(i) {
		return
	}
	for to := range g.out[i] {
		delete(g.in[to], i)
		g.edges--
	}
	for from := range g.in[i] {
		delete(g.out[from], i)
		g.edges--
	}
	g.out[i] = make(map[int]struct{})
	g.in[i] = make(map[int]struct{})
	g.alive[i] = false
}

// HasEdge reports whether the directed edge from→to exists.
func (g *Graph) HasEdge(from, to int) bool {
	_, ok := g.out[from][to]
	return ok
}

// Neighbors returns the union of i's in- and out-neighbours — the peers it
// exchanges messages with — in ascending peer order. The deterministic
// order keeps every consumer (announcement forwarding, searches, bootstrap
// probing) reproducible for a fixed seed regardless of Go's randomized map
// iteration and of how many sweep workers run.
func (g *Graph) Neighbors(i int) []int {
	seen := make(map[int]struct{}, len(g.out[i])+len(g.in[i]))
	for j := range g.out[i] {
		seen[j] = struct{}{}
	}
	for j := range g.in[i] {
		seen[j] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for j := range seen {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// Degree returns the number of distinct neighbours of i (in ∪ out).
func (g *Graph) Degree(i int) int {
	d := len(g.out[i])
	for j := range g.in[i] {
		if _, ok := g.out[i][j]; !ok {
			d++
		}
	}
	return d
}

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Degrees returns the degree of every alive peer.
func (g *Graph) Degrees() []int {
	out := make([]int, 0, g.NumAlive())
	for i := range g.alive {
		if g.alive[i] {
			out = append(out, g.Degree(i))
		}
	}
	return out
}
