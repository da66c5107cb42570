package overlay

import "math/rand"

// ClusteringCoefficient returns the mean local clustering coefficient over
// alive peers with degree >= 2 (treating the overlay as undirected). The
// paper observes GroupCast overlays have lower clustering than PLOD ones,
// which is why SSA reaches fewer peers on them.
func ClusteringCoefficient(g *Graph) float64 {
	var sum float64
	var count int
	for _, i := range g.AlivePeers() {
		nbrs := g.Neighbors(i)
		if len(nbrs) < 2 {
			continue
		}
		links := 0
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				if g.HasEdge(nbrs[a], nbrs[b]) || g.HasEdge(nbrs[b], nbrs[a]) {
					links++
				}
			}
		}
		possible := len(nbrs) * (len(nbrs) - 1) / 2
		sum += float64(links) / float64(possible)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// PathLengthStats estimates hop-count path lengths over the overlay by BFS
// from up to sampleSources random alive peers. It returns the mean hop count
// over reached pairs and the maximum observed (an eccentricity lower bound on
// the diameter).
func PathLengthStats(g *Graph, sampleSources int, rng *rand.Rand) (mean float64, max int) {
	alive := g.AlivePeers()
	if len(alive) < 2 || sampleSources < 1 {
		return 0, 0
	}
	sources := make([]int, 0, sampleSources)
	perm := rng.Perm(len(alive))
	for _, idx := range perm {
		if len(sources) >= sampleSources {
			break
		}
		sources = append(sources, alive[idx])
	}
	var sum float64
	var count int
	for _, src := range sources {
		depth := bfsDepths(g, src)
		for _, d := range depth {
			if d > 0 {
				sum += float64(d)
				count++
				if d > max {
					max = d
				}
			}
		}
	}
	if count == 0 {
		return 0, max
	}
	return sum / float64(count), max
}

// bfsDepths returns hop counts from src to every reachable alive peer
// (0 for src itself, -1 for unreachable).
func bfsDepths(g *Graph, src int) map[int]int {
	depth := map[int]int{src: 0}
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(v) {
			if _, seen := depth[nb]; !seen {
				depth[nb] = depth[v] + 1
				queue = append(queue, nb)
			}
		}
	}
	return depth
}
