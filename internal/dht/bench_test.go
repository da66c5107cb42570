package dht

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// Lookup-cost benchmarks over a static in-memory Kademlia population. Every
// peer's routing table is fed the whole population in a per-node rotated
// arrival order, so tables are as converged as a long-lived overlay's, and
// the query function answers synchronously from the target's own table — the
// measured cost is the algorithm's (queries issued, waves walked), not the
// network's.

const benchSeed = 42

type benchNet struct {
	ids      []ID
	contacts []Contact
	tables   []*Table
	idxOf    map[string]int
}

// benchNets caches populations across testing.Benchmark's repeated calls of
// the same function with growing b.N: the n=4096 build costs ~16M Observe
// calls and must not be paid once per ramp step.
var benchNets = map[int]*benchNet{}

func getBenchNet(n int) *benchNet {
	if bn := benchNets[n]; bn != nil {
		return bn
	}
	rng := rand.New(rand.NewSource(benchSeed))
	bn := &benchNet{
		ids:      make([]ID, n),
		contacts: make([]Contact, n),
		tables:   make([]*Table, n),
		idxOf:    make(map[string]int, n),
	}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("bench-%d", i)
		bn.ids[i] = NodeID(addr)
		bn.contacts[i] = Contact{ID: bn.ids[i], Info: wire.PeerInfo{Addr: addr}}
		bn.idxOf[addr] = i
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		bn.tables[i] = NewTable(bn.ids[i], DefaultK)
		for j := 0; j < n; j++ {
			if o := perm[(i+j)%n]; o != i {
				bn.tables[i].Observe(bn.contacts[o])
			}
		}
	}
	benchNets[n] = bn
	return bn
}

// benchTarget is one pre-planned value lookup: a group key, the peer that
// starts the lookup, and the DefaultK XOR-closest peers holding the record.
type benchTarget struct {
	key     ID
	origin  int
	holders map[int]bool
	rec     Record
}

func makeBenchTargets(bn *benchNet, count int, seed int64) []benchTarget {
	rng := rand.New(rand.NewSource(seed))
	targets := make([]benchTarget, count)
	for t := range targets {
		key := KeyID(fmt.Sprintf("bench-group-%d", t))
		byDist := make([]int, len(bn.ids))
		for i := range byDist {
			byDist[i] = i
		}
		sort.Slice(byDist, func(a, b int) bool {
			return Closer(key, bn.ids[byDist[a]], bn.ids[byDist[b]])
		})
		holders := make(map[int]bool, DefaultK)
		for _, i := range byDist[:DefaultK] {
			holders[i] = true
		}
		targets[t] = benchTarget{
			key:     key,
			origin:  rng.Intn(len(bn.ids)),
			holders: holders,
			rec: Record{GroupID: fmt.Sprintf("bench-group-%d", t), Epoch: 1,
				Rendezvous: bn.contacts[byDist[0]].Info},
		}
	}
	return targets
}

func (bn *benchNet) lookup(bt benchTarget) Result {
	return Lookup(bt.key, bn.tables[bt.origin].Closest(bt.key, DefaultK),
		DefaultK, DefaultAlpha,
		func(c Contact, target ID) ([]Contact, *Record, error) {
			i := bn.idxOf[c.Info.Addr]
			if bt.holders[i] {
				rec := bt.rec
				return nil, &rec, nil
			}
			return bn.tables[i].Closest(target, DefaultK), nil, nil
		})
}

// BenchmarkLookup measures one full iterative value lookup per op, reporting
// queries/op and hops/op alongside the time — the O(log N) claim in numbers.
func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bn := getBenchNet(n)
			targets := makeBenchTargets(bn, 64, benchSeed+1)
			var queries, hops int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := bn.lookup(targets[i%len(targets)])
				if res.Record == nil {
					b.Fatal("lookup missed a replicated record")
				}
				queries += res.Queries
				hops += res.Hops
			}
			b.ReportMetric(float64(queries)/float64(b.N), "queries/op")
			b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
		})
	}
}

// BenchmarkTableObserve is the routing-table maintenance hot path: one
// contact sighting against an already-full table.
func BenchmarkTableObserve(b *testing.B) {
	bn := getBenchNet(1024)
	t := NewTable(bn.ids[0], DefaultK)
	for _, c := range bn.contacts[1:] {
		t.Observe(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Observe(bn.contacts[1+i%(len(bn.contacts)-1)])
	}
}

// BenchmarkStoreRoundTrip is one epoch-guarded Put plus the Get a FindValue
// reply pays.
func BenchmarkStoreRoundTrip(b *testing.B) {
	s := NewStore(time.Hour)
	key := KeyID("bench-store")
	rec := Record{GroupID: "bench-store", Epoch: 1,
		Rendezvous: wire.PeerInfo{Addr: "bench-0"}}
	now := time.Unix(1700000000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Epoch++
		s.Put(key, rec, now)
		if _, ok := s.Get(key, now); !ok {
			b.Fatal("record vanished")
		}
	}
}

// lookupQueryBudget is the per-lookup query ceiling: a converged table
// resolves any key well inside 1.5·log2(N) queries.
func lookupQueryBudget(n int) float64 { return 1.5 * math.Log2(float64(n)) }

// TestLookupQueryBudget is the discovery plane's cost gate (docs/DISCOVERY.md):
// over 256 fresh value lookups per population size, every replicated record
// resolves and the mean queries per lookup stay within lookupQueryBudget. The
// populations and targets are seeded, so the numbers are the same every run.
func TestLookupQueryBudget(t *testing.T) {
	for _, n := range []int{256, 1024, 4096} {
		bn := getBenchNet(n)
		targets := makeBenchTargets(bn, 256, benchSeed+2)
		var queries, hops, hits int
		for _, bt := range targets {
			res := bn.lookup(bt)
			queries += res.Queries
			hops += res.Hops
			if res.Record != nil {
				hits++
			}
		}
		mean, budget := float64(queries)/float64(len(targets)), lookupQueryBudget(n)
		t.Logf("n=%-5d %.2f queries/lookup (budget %.1f), %.2f hops, %d/%d hit",
			n, mean, budget, float64(hops)/float64(len(targets)), hits, len(targets))
		if hits != len(targets) {
			t.Errorf("n=%d: %d of %d lookups hit, every replicated record must resolve", n, hits, len(targets))
		}
		if mean > budget {
			t.Errorf("n=%d: %.2f mean queries/lookup, over the budget of %.1f", n, mean, budget)
		}
	}
}
