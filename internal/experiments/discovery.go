package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"groupcast/internal/dht"
	"groupcast/internal/overlay"
	"groupcast/internal/wire"
)

// This experiment compares the two group-discovery mechanisms on the same
// population: the unstructured ripple search (BFS flood over the utility
// overlay until a group member answers) against the Kademlia DHT (iterative
// XOR-metric lookup toward the group key, with the charter record replicated
// to the k closest nodes). Join events draw their group from a Zipf
// popularity law — the regime the paper's group applications live in, where
// a few groups are hot and the long tail is nearly memberless. The flood's
// cost collapses for hot groups (any neighbour is a member) but degrades
// toward O(N) on the tail; the DHT pays the same O(log N) everywhere.

// DiscoveryRow is one cell of the discovery comparison: overlay size ×
// Zipf skew × churn fraction, with per-join means over both mechanisms.
type DiscoveryRow struct {
	N    int
	Skew float64
	// Churn is the fraction of the population unreachable during each join
	// (resampled per join): down members do not answer the ripple flood,
	// down record holders do not answer lookups, and down routing peers
	// fail their queries so the lookup routes around them.
	Churn float64
	// Groups and Joins are the cell's workload shape.
	Groups int
	Joins  int
	// RippleMsgs/DhtMsgs are mean messages per join (ripple: one per link
	// traversal of the flood; DHT: request + reply per lookup query).
	RippleMsgs float64
	DhtMsgs    float64
	// RippleHops/DhtHops are mean waves until the first hit (ripple: BFS
	// depth; DHT: lookup waves — the O(log N) quantity).
	RippleHops float64
	DhtHops    float64
	// RippleHit/DhtHit are the fraction of joins that found the group.
	RippleHit float64
	DhtHit    float64
	// HolderLoad is the mean number of record lookups served per active
	// record holder over the cell — the per-holder share of the discovery
	// load that Zipf-hot groups concentrate on their k replicas.
	HolderLoad float64
}

// discoveryRippleTTL bounds the ripple flood. The live node defaults to a
// TTL of 2 with retries; the study gives the flood a deep TTL so its hit
// rate is comparable and the cost difference is the mechanism's, not the
// budget's.
const discoveryRippleTTL = 8

// DiscoveryStudy runs the join-discovery comparison over every overlay size
// × Zipf skew × churn-fraction cell. Each cell builds one utility overlay
// and one simulated DHT population over the same peers, creates `groups`
// groups rooted at random peers (records replicated to the k = 8
// XOR-closest nodes), and replays `joins` Zipf-drawn join events through
// both mechanisms; a joiner becomes a member afterwards, so hot groups grow
// cheap access points for the flood just as they do live. Under churn a
// fresh down-set of the given fraction is drawn per join: down members stay
// silent to the flood, down holders and routing peers fail their lookup
// queries (the overlay links themselves stay up — link-level resilience is
// the resilience study's job). Cells fan out across `workers` goroutines
// with grid-seeded RNGs, so output is identical at any worker count.
func DiscoveryStudy(sizes []int, skews, churns []float64, groups, joins int, seed int64, workers int) ([]DiscoveryRow, error) {
	return mapOrdered(workers, len(sizes)*len(skews)*len(churns), func(cell int) (DiscoveryRow, error) {
		si := cell / (len(skews) * len(churns))
		ki := cell / len(churns) % len(skews)
		ci := cell % len(churns)
		n, skew, churn := sizes[si], skews[ki], churns[ci]
		row := DiscoveryRow{N: n, Skew: skew, Churn: churn, Groups: groups, Joins: joins}
		rng := rand.New(rand.NewSource(cellSeed(seed, 97, int64(si), int64(ki), int64(ci))))

		p, err := BuildPipeline(DefaultPipelineConfig(n, seed))
		if err != nil {
			return row, err
		}
		g, _, _, err := p.GroupCastOverlay(seed)
		if err != nil {
			return row, err
		}
		alive := g.AlivePeers()

		// The DHT population over the same peers: one routing table per
		// peer, fed from a single shared permutation rotated per node (the
		// arrival order differs per node, the work stays O(N·N) in Observe
		// calls with no per-node allocation storm).
		ids := make([]dht.ID, len(alive))
		contacts := make([]dht.Contact, len(alive))
		idxOf := make(map[string]int, len(alive))
		for i, peerID := range alive {
			addr := fmt.Sprintf("n%d", peerID)
			ids[i] = dht.NodeID(addr)
			contacts[i] = dht.Contact{ID: ids[i], Info: wire.PeerInfo{Addr: addr}}
			idxOf[addr] = i
		}
		tables := make([]*dht.Table, len(alive))
		perm := rng.Perm(len(alive))
		for i := range alive {
			tables[i] = dht.NewTable(ids[i], dht.DefaultK)
			for j := range alive {
				o := perm[(i+j)%len(alive)]
				if o != i {
					tables[i].Observe(contacts[o])
				}
			}
		}

		// Groups: random rendezvous each, members start as {rendezvous},
		// record replicated to the k globally XOR-closest nodes.
		type groupSim struct {
			key     dht.ID
			rdv     int // index into alive
			members map[int]bool
			holders map[int]bool
		}
		sims := make([]*groupSim, groups)
		for gi := range sims {
			name := fmt.Sprintf("group-%d", gi)
			gs := &groupSim{
				key:     dht.KeyID(name),
				rdv:     rng.Intn(len(alive)),
				members: make(map[int]bool),
				holders: make(map[int]bool),
			}
			gs.members[gs.rdv] = true
			byDist := make([]int, len(alive))
			for i := range byDist {
				byDist[i] = i
			}
			sort.Slice(byDist, func(a, b int) bool {
				return dht.Closer(gs.key, ids[byDist[a]], ids[byDist[b]])
			})
			for _, i := range byDist[:dht.DefaultK] {
				gs.holders[i] = true
			}
			sims[gi] = gs
		}

		// Replay the Zipf join workload through both mechanisms. Both see
		// the same (group, joiner) sequence, the same growing membership and
		// the same per-join down-set. The generation counter makes clearing
		// the down-set free.
		zipf := rand.NewZipf(rng, skew, 1, uint64(groups-1))
		downGen := make([]int, len(alive))
		downCount := int(churn * float64(len(alive)))
		scratch := make([]int, len(alive))
		for i := range scratch {
			scratch[i] = i
		}
		type slotKey struct{ group, holder int }
		holderServes := make(map[slotKey]int)
		for j := 0; j < joins; j++ {
			gen := j + 1
			// Partial Fisher–Yates draw of the down-set for this join.
			for d := 0; d < downCount; d++ {
				pick := d + rng.Intn(len(scratch)-d)
				scratch[d], scratch[pick] = scratch[pick], scratch[d]
				downGen[scratch[d]] = gen
			}
			down := func(i int) bool { return downGen[i] == gen }

			gi := int(zipf.Uint64())
			gs := sims[gi]
			joiner := rng.Intn(len(alive))
			for gs.members[joiner] || down(joiner) {
				joiner = rng.Intn(len(alive))
			}

			rip := overlay.RippleSearch(g, alive[joiner], discoveryRippleTTL,
				func(p int) bool { return gs.members[p] && !down(p) })
			row.RippleMsgs += float64(rip.Messages)
			row.RippleHops += float64(rip.Hops)
			if rip.Found {
				row.RippleHit++
			}

			res := dht.Lookup(gs.key, tables[joiner].Closest(gs.key, dht.DefaultK),
				dht.DefaultK, dht.DefaultAlpha,
				func(c dht.Contact, target dht.ID) ([]dht.Contact, *dht.Record, error) {
					i := idxOf[c.Info.Addr]
					if down(i) {
						return nil, nil, fmt.Errorf("peer down")
					}
					if gs.holders[i] {
						holderServes[slotKey{gi, i}]++
						return nil, &dht.Record{GroupID: "g", Epoch: 1,
							Rendezvous: contacts[gs.rdv].Info}, nil
					}
					return tables[i].Closest(target, dht.DefaultK), nil, nil
				})
			row.DhtMsgs += 2 * float64(res.Queries)
			row.DhtHops += float64(res.Hops)
			if res.Record != nil {
				row.DhtHit++
			}

			gs.members[joiner] = true
		}
		fj := float64(joins)
		row.RippleMsgs /= fj
		row.DhtMsgs /= fj
		row.RippleHops /= fj
		row.DhtHops /= fj
		row.RippleHit /= fj
		row.DhtHit /= fj
		if len(holderServes) > 0 {
			total := 0
			for _, c := range holderServes {
				total += c
			}
			row.HolderLoad = float64(total) / float64(len(holderServes))
		}
		return row, nil
	})
}

// RunDiscovery writes the discovery comparison: DHT vs ripple on join
// latency proxies (waves/hops), message cost, hit rate and per-holder load
// across overlay size, group popularity skew and churn fraction.
func RunDiscovery(w io.Writer, seed int64, workers int) error {
	rows, err := DiscoveryStudy([]int{256, 1024, 4096}, []float64{1.2, 2.0},
		[]float64{0, 0.25}, 48, 160, seed, workers)
	if err != nil {
		return err
	}
	writeDiscovery(w, rows)
	return nil
}

func writeDiscovery(w io.Writer, rows []DiscoveryRow) {
	fmt.Fprintln(w, "# Group discovery: Kademlia DHT vs ripple search (Zipf join popularity x churn)")
	fmt.Fprintf(w, "%-7s %-6s %-7s %-8s %-7s %-11s %-10s %-10s %-9s %-9s %-8s %-9s\n",
		"n", "skew", "churn", "groups", "joins", "rip-msgs", "dht-msgs", "rip-hops", "dht-hops", "rip-hit", "dht-hit", "hold-load")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7d %-6.1f %-7.2f %-8d %-7d %-11.1f %-10.1f %-10.2f %-9.2f %-9.3f %-8.3f %-9.2f\n",
			r.N, r.Skew, r.Churn, r.Groups, r.Joins, r.RippleMsgs, r.DhtMsgs,
			r.RippleHops, r.DhtHops, r.RippleHit, r.DhtHit, r.HolderLoad)
	}
}
