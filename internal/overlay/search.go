package overlay

// SearchResult reports the outcome of a service lookup over the overlay.
type SearchResult struct {
	// Found is the first peer satisfying the predicate, or -1.
	Found bool
	// Peer is the matching peer when Found.
	Peer int
	// Hops is the overlay hop count from the origin to the match.
	Hops int
	// Latency is the accumulated estimated latency along the discovery path
	// in ms (0 when the origin itself matches).
	Latency float64
	// Messages is the number of overlay messages the search generated.
	Messages int
	// Path is the overlay node sequence from the origin to the match
	// (inclusive), when found.
	Path []int
}

// RippleSearch performs the paper's scoped flooding ("ripple search in
// standard Gnutella P2P network, with initial TTL set to a very low value"):
// a BFS out to ttl hops where every visited peer forwards the query to all
// its neighbours. The predicate is evaluated origin first, then wave by
// wave; the nearest (fewest-hop) match wins, with latency ties broken by
// arrival order. All messages of explored waves are counted, matching the
// flood's real cost.
func RippleSearch(g *Graph, origin, ttl int, pred func(p int) bool) SearchResult {
	if !g.Alive(origin) {
		return SearchResult{Found: false, Peer: -1}
	}
	if pred(origin) {
		return SearchResult{Found: true, Peer: origin, Path: []int{origin}}
	}
	type visit struct {
		peer    int
		latency float64
	}
	uni := g.Universe()
	cameFrom := map[int]int{origin: origin}
	wave := []visit{{peer: origin}}
	res := SearchResult{Found: false, Peer: -1}
	for hop := 1; hop <= ttl; hop++ {
		var next []visit
		for _, v := range wave {
			for _, nb := range g.Neighbors(v.peer) {
				res.Messages++ // the query forwarded over one overlay link
				if _, dup := cameFrom[nb]; dup {
					continue
				}
				cameFrom[nb] = v.peer
				lat := v.latency + uni.Dist(v.peer, nb)
				if pred(nb) && !res.Found {
					res.Found = true
					res.Peer = nb
					res.Hops = hop
					res.Latency = lat
				}
				next = append(next, visit{peer: nb, latency: lat})
			}
		}
		if res.Found {
			// Reconstruct origin→match path from the BFS parents.
			path := []int{res.Peer}
			for cur := res.Peer; cur != origin; {
				cur = cameFrom[cur]
				path = append(path, cur)
			}
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			res.Path = path
			return res
		}
		wave = next
		if len(wave) == 0 {
			break
		}
	}
	return res
}
