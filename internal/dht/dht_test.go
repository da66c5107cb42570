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

func TestIDDerivationAndMetric(t *testing.T) {
	a, b := NodeID("host-a:1"), NodeID("host-b:2")
	if a == b {
		t.Fatal("distinct addresses hashed to the same ID")
	}
	if NodeID("host-a:1") != a {
		t.Fatal("NodeID not deterministic")
	}
	if Distance(a, a) != (ID{}) {
		t.Fatal("d(a,a) != 0")
	}
	if Distance(a, b) != Distance(b, a) {
		t.Fatal("XOR metric not symmetric")
	}
	if got, ok := FromBytes(a.Bytes()); !ok || got != a {
		t.Fatalf("FromBytes round trip: %v %v", got, ok)
	}
	if _, ok := FromBytes([]byte("short")); ok {
		t.Fatal("FromBytes accepted a non-20-byte slice")
	}
	if len(a.String()) != 2*IDBytes {
		t.Fatalf("hex form length %d", len(a.String()))
	}
}

func TestBucketIndex(t *testing.T) {
	self := ID{}
	if BucketIndex(self, self) != -1 {
		t.Fatal("self must not be tabled")
	}
	// Flipping exactly bit i (from the MSB) lands in bucket i.
	for _, bit := range []int{0, 7, 8, 42, IDBits - 1} {
		var other ID
		other[bit/8] = 1 << (7 - bit%8)
		if got := BucketIndex(self, other); got != bit {
			t.Fatalf("bit %d: bucket %d", bit, got)
		}
	}
}

func contact(addr string) Contact {
	return Contact{ID: NodeID(addr), Info: wire.PeerInfo{Addr: addr}}
}

func TestTableLRUAndEviction(t *testing.T) {
	self := NodeID("self")
	tab := NewTable(self, 2)

	// Find three contacts that share one bucket so it overflows at k=2.
	byBucket := map[int][]Contact{}
	var bucket int
	var trio []Contact
	for i := 0; trio == nil && i < 10000; i++ {
		c := contact(fmt.Sprintf("n%d", i))
		idx := BucketIndex(self, c.ID)
		byBucket[idx] = append(byBucket[idx], c)
		if len(byBucket[idx]) == 3 {
			bucket, trio = idx, byBucket[idx]
		}
	}
	if trio == nil {
		t.Fatal("no bucket collision found")
	}
	_ = bucket

	if _, full := tab.Observe(trio[0]); full {
		t.Fatal("empty bucket reported full")
	}
	if _, full := tab.Observe(trio[1]); full {
		t.Fatal("bucket with room reported full")
	}
	// Third contact overflows: the eviction candidate must be the stalest
	// (trio[0]) and the newcomer must NOT be inserted yet.
	cand, full := tab.Observe(trio[2])
	if !full || cand.Info.Addr != trio[0].Info.Addr {
		t.Fatalf("eviction candidate = %q full=%v, want %q", cand.Info.Addr, full, trio[0].Info.Addr)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d after overflow, want 2", tab.Len())
	}
	// Re-observing trio[0] refreshes it; now trio[1] is stalest.
	tab.Observe(trio[0])
	if cand, full = tab.Observe(trio[2]); !full || cand.Info.Addr != trio[1].Info.Addr {
		t.Fatalf("after refresh, candidate = %q, want %q", cand.Info.Addr, trio[1].Info.Addr)
	}
	// The candidate fails its ping: evict it and admit the newcomer.
	tab.Evict(cand, trio[2])
	got := map[string]bool{}
	for _, c := range tab.Closest(self, 10) {
		got[c.Info.Addr] = true
	}
	if !got[trio[0].Info.Addr] || !got[trio[2].Info.Addr] || got[trio[1].Info.Addr] {
		t.Fatalf("post-eviction contents: %v", got)
	}

	tab.Remove(trio[2].ID, trio[2].Info.Addr)
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after Remove, want 1", tab.Len())
	}
	if tab.MaxBucketDepth() != 1 {
		t.Fatalf("MaxBucketDepth = %d, want 1", tab.MaxBucketDepth())
	}
}

func TestTableClosestOrdering(t *testing.T) {
	self := NodeID("origin")
	tab := NewTable(self, DefaultK)
	var all []Contact
	for i := 0; i < 200; i++ {
		c := contact(fmt.Sprintf("peer-%d", i))
		tab.Observe(c)
		all = append(all, c)
	}
	target := KeyID("some-group")
	got := tab.Closest(target, 10)
	if len(got) != 10 {
		t.Fatalf("Closest returned %d contacts", len(got))
	}
	for i := 1; i < len(got); i++ {
		if Closer(target, got[i].ID, got[i-1].ID) {
			t.Fatalf("Closest not sorted at %d", i)
		}
	}
	// The first result must be the global nearest among the tabled subset.
	sort.Slice(all, func(i, j int) bool { return Closer(target, all[i].ID, all[j].ID) })
	tabled := map[string]bool{}
	for _, c := range tab.Closest(target, tab.Len()) {
		tabled[c.Info.Addr] = true
	}
	for _, c := range all {
		if tabled[c.Info.Addr] {
			if got[0].Info.Addr != c.Info.Addr {
				t.Fatalf("nearest tabled contact %q, Closest[0] = %q", c.Info.Addr, got[0].Info.Addr)
			}
			break
		}
	}
}

func TestStoreEpochGuard(t *testing.T) {
	s := NewStore(time.Minute)
	key := KeyID("g")
	now := time.Unix(1700000000, 0)
	rec := func(addr string, epoch uint64) Record {
		return Record{GroupID: "g", Rendezvous: wire.PeerInfo{Addr: addr}, Epoch: epoch}
	}

	if !s.Put(key, rec("b", 1), now) {
		t.Fatal("fresh record rejected")
	}
	// A higher epoch (the successor) always wins.
	if !s.Put(key, rec("c", 2), now) {
		t.Fatal("higher epoch rejected")
	}
	// The stale old root cannot clobber the successor.
	if s.Put(key, rec("b", 1), now) {
		t.Fatal("stale epoch accepted")
	}
	// Same epoch, same rendezvous: an owner refresh.
	later := now.Add(10 * time.Second)
	if !s.Put(key, rec("c", 2), later) {
		t.Fatal("owner refresh rejected")
	}
	if r, ok := s.Get(key, later); !ok || !r.StoredAt.Equal(later) {
		t.Fatalf("refresh did not restamp: %+v ok=%v", r, ok)
	}
	// Same epoch, different rendezvous: lexicographically lower address wins.
	if !s.Put(key, rec("a", 2), later) {
		t.Fatal("lower-address tiebreak rejected")
	}
	if s.Put(key, rec("z", 2), later) {
		t.Fatal("higher-address tiebreak accepted")
	}

	// Expiry: the record dies TTL after its last refresh, but its lineage
	// ordering outlives the TTL — a stale lower-epoch echo landing between
	// expiry and the sweep must not resurrect a dead root's record.
	end := later.Add(2 * time.Minute)
	if _, ok := s.Get(key, end); ok {
		t.Fatal("expired record still served")
	}
	if s.Put(key, rec("z", 1), end) {
		t.Fatal("stale lower-epoch echo resurrected an expired record")
	}
	// The surviving lineage itself may refresh straight over the expired
	// entry without waiting for a sweep.
	if !s.Put(key, rec("a", 2), end) {
		t.Fatal("owner refresh over an expired record rejected")
	}
	if n := s.Sweep(end.Add(3 * time.Minute)); n != 1 {
		t.Fatalf("Sweep removed %d records, want 1", n)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after sweep", s.Len())
	}
	// Once the sweep (or an explicit Delete) cleared the entry, the slate is
	// clean and any epoch enters — a re-created group starts over at 1.
	if !s.Put(key, rec("z", 1), end.Add(4*time.Minute)) {
		t.Fatal("post-sweep record rejected")
	}
}

// TestStoreExpireRePutOrdering is the regression test for the lookup/cache
// resurrection bug: a record that expires between a lookup and its
// cache-fill used to be overwritable by ANY record — including a stale
// gossip echo carrying the dead root's lower epoch — because the epoch guard
// was skipped for expired-but-unswept entries. The guard must hold until the
// entry is actually removed.
func TestStoreExpireRePutOrdering(t *testing.T) {
	s := NewStore(time.Second)
	key := KeyID("grp")
	now := time.Unix(1700000000, 0)
	successor := Record{GroupID: "grp", Rendezvous: wire.PeerInfo{Addr: "new-root"}, Epoch: 3}
	corpse := Record{GroupID: "grp", Rendezvous: wire.PeerInfo{Addr: "old-root"}, Epoch: 2}

	if !s.Put(key, successor, now) {
		t.Fatal("successor record rejected")
	}
	// TTL passes without a refresh; the entry is expired but not yet swept.
	expired := now.Add(2 * time.Second)
	if _, ok := s.Get(key, expired); ok {
		t.Fatal("expired record still served")
	}
	// The stale echo of the pre-succession record arrives (e.g. a slow
	// FindValue reply cached by a caller). It must not be retained.
	if s.Put(key, corpse, expired) {
		t.Fatal("expire→re-Put resurrected the dead root's record")
	}
	if got, ok := s.Get(key, expired); ok {
		t.Fatalf("Get served %+v after expiry", got)
	}
	// The successor's own republish still lands.
	if !s.Put(key, successor, expired) {
		t.Fatal("successor republish rejected over its own expired record")
	}
	got, ok := s.Get(key, expired)
	if !ok || got.Rendezvous.Addr != "new-root" || got.Epoch != 3 {
		t.Fatalf("Get = %+v, %v; want the epoch-3 successor", got, ok)
	}
}

// simNet is an offline population of DHT nodes with fully converged routing
// tables, used to drive Lookup without a transport.
type simNet struct {
	addrs  []string
	ids    []ID
	byAddr map[string]int
	tables []*Table
}

func buildSimNet(n, k int, seed int64) *simNet {
	net := &simNet{byAddr: make(map[string]int, n)}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("node-%d", i)
		net.addrs = append(net.addrs, addr)
		net.ids = append(net.ids, NodeID(addr))
		net.byAddr[addr] = i
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	for i := 0; i < n; i++ {
		tab := NewTable(net.ids[i], k)
		for j := 0; j < n; j++ {
			o := perm[(i+j)%n]
			if o == i {
				continue
			}
			tab.Observe(Contact{ID: net.ids[o], Info: wire.PeerInfo{Addr: net.addrs[o]}})
		}
		net.tables = append(net.tables, tab)
	}
	return net
}

func (s *simNet) query(c Contact, target ID) ([]Contact, *Record, error) {
	i, ok := s.byAddr[c.Info.Addr]
	if !ok {
		return nil, nil, fmt.Errorf("unknown contact %q", c.Info.Addr)
	}
	return s.tables[i].Closest(target, s.tables[i].k), nil, nil
}

func TestLookupConvergesLogarithmically(t *testing.T) {
	const n, k = 512, DefaultK
	net := buildSimNet(n, k, 1)

	// Global k-nearest set for a sample of targets; the lookup must find the
	// true nearest node and stay within a small multiple of log2(N) waves.
	totalHops := 0
	const targets = 20
	for ti := 0; ti < targets; ti++ {
		target := KeyID(fmt.Sprintf("group-%d", ti))
		nearest := 0
		for i := 1; i < n; i++ {
			if Closer(target, net.ids[i], net.ids[nearest]) {
				nearest = i
			}
		}
		origin := (ti * 37) % n
		res := Lookup(target, net.tables[origin].Closest(target, k), k, DefaultAlpha, net.query)
		if len(res.Closest) == 0 || res.Closest[0].Info.Addr != net.addrs[nearest] {
			t.Fatalf("target %d: lookup missed the nearest node", ti)
		}
		if res.Failures != 0 {
			t.Fatalf("target %d: %d failures in a healthy net", ti, res.Failures)
		}
		totalHops += res.Hops
	}
	avg := float64(totalHops) / targets
	if ceil := 1.5 * math.Log2(n); avg > ceil {
		t.Fatalf("avg hops %.2f exceeds %.2f (1.5·log2 %d)", avg, ceil, n)
	}
}

func TestLookupFindsValueAndSurvivesFailures(t *testing.T) {
	const n, k = 256, DefaultK
	net := buildSimNet(n, k, 2)
	target := KeyID("the-group")

	// Replicate the record on the k globally closest nodes.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return Closer(target, net.ids[order[a]], net.ids[order[b]])
	})
	// The nearer half of the holders are down: the lookup must still find a
	// live replica.
	down, holders := map[string]bool{}, map[string]bool{}
	for rank, i := range order[:k] {
		if rank < k/2 {
			down[net.addrs[i]] = true
		} else {
			holders[net.addrs[i]] = true
		}
	}
	rec := &Record{GroupID: "the-group", Rendezvous: wire.PeerInfo{Addr: "root"}, Epoch: 3}
	query := func(c Contact, tgt ID) ([]Contact, *Record, error) {
		if down[c.Info.Addr] {
			return nil, nil, fmt.Errorf("replica down")
		}
		cs, _, err := net.query(c, tgt)
		if holders[c.Info.Addr] {
			return cs, rec, err
		}
		return cs, nil, err
	}
	res := Lookup(target, net.tables[11].Closest(target, k), k, DefaultAlpha, query)
	if res.Record == nil || res.Record.Epoch != 3 {
		t.Fatalf("value lookup missed: %+v", res)
	}
	if res.Failures == 0 {
		t.Fatal("test never exercised the failure path")
	}
}

// TestLookupCallsQuerySerially pins the callback contract: Lookup calls q
// from the calling goroutine, one query at a time, so a callback may keep
// plain (unsynchronized) bookkeeping. Under -race a concurrent call fails
// this test; without it the map writes crash the runtime.
func TestLookupCallsQuerySerially(t *testing.T) {
	const n, k = 256, DefaultK
	net := buildSimNet(n, k, 4)
	for ti := 0; ti < 20; ti++ {
		target := KeyID(fmt.Sprintf("serial-%d", ti))
		served := map[string]int{}
		var asked []string
		res := Lookup(target, net.tables[ti].Closest(target, k), k, DefaultAlpha,
			func(c Contact, tgt ID) ([]Contact, *Record, error) {
				served[c.Info.Addr]++
				asked = append(asked, c.Info.Addr)
				return net.query(c, tgt)
			})
		if len(asked) != res.Queries {
			t.Fatalf("target %d: callback ran %d times for %d counted queries", ti, len(asked), res.Queries)
		}
		if res.Hops < 2 {
			t.Fatalf("target %d: lookup converged in %d wave(s); the test needs multi-query waves", ti, res.Hops)
		}
		for addr, times := range served {
			if times != 1 {
				t.Fatalf("target %d: %s queried %d times", ti, addr, times)
			}
		}
	}
}

func TestLookupDeterministic(t *testing.T) {
	const n, k = 256, DefaultK
	net := buildSimNet(n, k, 3)
	target := KeyID("repeat")
	seeds := net.tables[5].Closest(target, k)
	ref := Lookup(target, seeds, k, DefaultAlpha, net.query)
	for i := 0; i < 5; i++ {
		got := Lookup(target, seeds, k, DefaultAlpha, net.query)
		if got.Queries != ref.Queries || got.Hops != ref.Hops ||
			len(got.Closest) != len(ref.Closest) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, got, ref)
		}
		for j := range got.Closest {
			if got.Closest[j].Info.Addr != ref.Closest[j].Info.Addr {
				t.Fatalf("run %d: shortlist differs at %d", i, j)
			}
		}
	}
}

// TestTableClosestMatchesSort checks Closest's bucket walk against the old
// Closest, a sort of the whole table, over random tables and targets: the
// table's own ID, a tabled contact's, and random keys.
func TestTableClosestMatchesSort(t *testing.T) {
	sortAll := func(tab *Table, target ID, n int) []Contact {
		var all []Contact
		for i := range tab.buckets {
			all = append(all, tab.buckets[i]...)
		}
		sort.Slice(all, func(i, j int) bool { return Closer(target, all[i].ID, all[j].ID) })
		if len(all) > n {
			all = all[:n]
		}
		return all
	}
	rng := rand.New(rand.NewSource(5))
	randID := func() (id ID) {
		rng.Read(id[:])
		return id
	}
	// near is a random ID in a random bucket of self's, so near buckets
	// fill too.
	near := func(self ID) ID {
		id, p := randID(), rng.Intn(IDBits)
		copy(id[:p/8], self[:p/8])
		mask := byte(0xff) << (8 - p%8) // self's bits above p in its byte
		id[p/8] = self[p/8]&mask | id[p/8]&^mask
		id[p/8] ^= 0x80 >> (p % 8) // bit p differs
		return id
	}
	for trial := 0; trial < 100; trial++ {
		tab := NewTable(randID(), 1+rng.Intn(DefaultK))
		used := map[ID]bool{tab.Self(): true} // IDs are distinct, as hashes are
		for i, size := 0, rng.Intn(400); i < size; i++ {
			id := randID()
			if i%2 == 0 {
				id = near(tab.Self())
			}
			if used[id] {
				continue
			}
			used[id] = true
			tab.Observe(Contact{ID: id, Info: wire.PeerInfo{Addr: fmt.Sprintf("c%d", i)}})
		}
		targets := []ID{tab.Self(), randID(), randID()}
		if cs := tab.Contacts(); len(cs) > 0 {
			targets = append(targets, cs[rng.Intn(len(cs))].ID)
		}
		for _, target := range targets {
			for _, n := range []int{1, DefaultK, 3 * DefaultK, tab.Len() + 1} {
				got, want := tab.Closest(target, n), sortAll(tab, target, n)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d, n=%d: Closest\n%v\nwant\n%v", trial, n, got, want)
				}
			}
		}
	}
}
