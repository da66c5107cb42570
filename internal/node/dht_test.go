package node

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/dht"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// dhtNode is the config tweak of the DHT tests: capacity 50 at every node
// and the default beacon grace.
func dhtNode(cfg *Config) {
	cfg.Capacity = 50
	cfg.BeaconGraceEpochs = 0 // the default
}

// joinViaDHT joins gid and fails the test unless the structured path served
// the join. It first waits, through wait, until a value lookup from nd finds
// a charter record of at least minEpoch, then joins in one loop event that
// also notes whether nd already holds a replica: the join must not fall back
// to the ripple search, and unless the replica was local it must run a
// lookup.
func joinViaDHT(t *testing.T, wait func(*testing.T, time.Duration, func() bool, func() string),
	nd *Node, gid string, minEpoch uint64, within time.Duration) {
	t.Helper()
	key := dht.KeyID(gid)
	wait(t, within, func() bool {
		var epoch uint64
		err := nd.await(func(done func(error)) {
			nd.dhtLookup(key, gid, func(res dht.Result) {
				if res.Record != nil {
					epoch = res.Record.Epoch
				}
				done(nil)
			})
		})
		return err == nil && epoch >= minEpoch
	}, static("no DHT lookup found the group's record"))

	before := nd.Stats()
	var local bool
	err := nd.await(func(done func(error)) {
		_, local = nd.dht.store.Get(key, nd.now)
		nd.joinInternal(gid, time.Second, true, done)
	})
	if err != nil {
		t.Fatalf("join %q: %v", gid, err)
	}
	after := nd.Stats()
	if after.DhtFallbacks != before.DhtFallbacks {
		t.Fatalf("join %q fell back to the ripple search", gid)
	}
	if !local && after.DhtLookups == before.DhtLookups {
		t.Fatalf("join %q resolved without a DHT lookup or a local replica", gid)
	}
	if !nd.Tree(gid).Attached {
		t.Fatalf("joined %q but not attached", gid)
	}
}

// TestDhtJoinResolvesWithoutRipple pins the structured discovery path: with
// no advertisement flood at all, a joiner reaches the group through the
// charter record the DHT holds, without the ripple fallback.
func TestDhtJoinResolvesWithoutRipple(t *testing.T) {
	const gid = "dht-only"
	c := newDriven(t, 8, 11, dhtNode)
	rdv := c.nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.BestEffort); err != nil {
		t.Fatal(err)
	}
	// Deliberately no Advertise: the charter record in the DHT is the only
	// breadcrumb.
	joinViaDHT(t, c.waitFor, c.nodes[len(c.nodes)-1], gid, 1, 10*time.Second)
	if rdv.Stats().DhtStores == 0 {
		t.Error("rendezvous never counted a charter store")
	}
}

// TestDhtFallbackToRipple pins the escape hatch: when no charter record
// exists anywhere (the rendezvous predates the DHT / runs with it disabled),
// the joiner's lookup misses, the fallback counter ticks, and the ripple
// flood still finds the group.
func TestDhtFallbackToRipple(t *testing.T) {
	const gid = "legacy"
	c := newDriven(t, 6, 13, func(cfg *Config) {
		dhtNode(cfg)
		cfg.DisableDHT = cfg.Seed == 1 // the rendezvous
	})
	rdv := c.nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.BestEffort); err != nil {
		t.Fatal(err)
	}
	joiner := c.nodes[len(c.nodes)-1]
	c.joinEventually(t, joiner, gid, 15*time.Second)

	st := joiner.Stats()
	if st.DhtLookups == 0 {
		t.Error("no DHT lookup was attempted before the fallback")
	}
	if st.DhtFallbacks == 0 {
		t.Error("ripple rescue not counted in DhtFallbacks")
	}
}

// TestDhtSuccessionRepublish: after the root of a group dies and a deputy
// promotes itself, the successor must republish the charter record under
// its bumped epoch — so a fresh node that joins through the DHT alone (no
// ripple fallback, no advertisement ever reaches it) lands on the new
// root's epoch-2 charter. It runs in virtual time; each wait is a horizon
// of the length it had on the wall clock.
func TestDhtSuccessionRepublish(t *testing.T) {
	const gid = "succession"
	noRefresh := func(cfg *Config) {
		dhtNode(cfg)
		// Keep advertisement floods out of the picture: the promotion's one
		// flood happens before the fresh node exists, and with refresh
		// effectively off it can never leak the group to it afterwards.
		cfg.AdvertiseRefreshEpochs = 1 << 20
	}
	c := newDriven(t, 7, 31, noRefresh)
	rdv := c.nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.nodes[1:] {
		c.joinEventually(t, nd, gid, 10*time.Second)
	}
	survivors := c.nodes[1:]
	c.waitFor(t, 10*time.Second, func() bool {
		for _, nd := range survivors {
			if holdsCharter(nd, gid) {
				return true
			}
		}
		return false
	}, static("no deputy ever received the charter"))

	if err := rdv.Close(); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 15*time.Second, func() bool {
		return singleRoot(survivors, gid) != nil
	}, static("no deputy promoted after the root died"))
	newRoot := singleRoot(survivors, gid)

	// The promotion must push the epoch-2 record into the DHT.
	c.waitFor(t, 10*time.Second, func() bool {
		return newRoot.Stats().DhtStores > 0
	}, static("promoted root never republished the charter record"))

	var seeds []string
	for _, nd := range survivors[:3] {
		seeds = append(seeds, nd.Addr())
	}
	cfg := DefaultConfig(50, coords.Point{c.rng.Float64() * 100, c.rng.Float64() * 100}, int64(len(c.nodes)+1))
	cfg.HeartbeatInterval = 100 * time.Millisecond
	noRefresh(&cfg)
	fresh := c.add(t, cfg, seeds)
	joinViaDHT(t, c.waitFor, fresh, gid, 2, 15*time.Second)

	// Beacons from the new root carry the bumped epoch down to the joiner.
	c.waitFor(t, 10*time.Second, func() bool {
		tv := fresh.Tree(gid)
		return tv.Attached && tv.Epoch >= 2
	}, static("fresh DHT-only joiner never reached the successor's epoch"))
}

// TestDhtChurnSoak is the race-enabled churn soak CI runs: members die and
// fresh nodes arrive while another member flaps Leave/Join, all of it
// resolving through the DHT. Afterwards a cold node must still join through
// the DHT without the ripple fallback (the routing tables and record
// replicas re-converged), and shutdown must leak no goroutines.
func TestDhtChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	baseline := runtime.NumGoroutine()
	const gid = "churny"
	c := newLive(t, 10, 41, dhtNode)
	rdv := c.nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.BestEffort); err != nil {
		t.Fatal(err)
	}
	join := func(nd *Node) {
		t.Helper()
		waitFor(t, 10*time.Second, func() bool { return nd.Join(gid, time.Second) == nil },
			func() string { return fmt.Sprintf("%s never joined %q", nd.Addr(), gid) })
	}
	for _, nd := range c.nodes[1:] {
		join(nd)
	}

	// One member flaps throughout the churn: its joins race the deaths and
	// arrivals below through live lookups.
	flapper := c.nodes[1]
	stopFlap := make(chan struct{})
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for {
			select {
			case <-stopFlap:
				return
			default:
			}
			_ = flapper.Leave(gid)
			_ = flapper.Join(gid, time.Second)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Three churn rounds: crash-stop one member, add one stranger that joins.
	alive := append([]*Node(nil), c.nodes...)
	for round := 0; round < 3; round++ {
		victim := alive[len(alive)-1]
		alive = alive[:len(alive)-1]
		_ = victim.Close()
		var seeds []string
		for _, nd := range alive[:4] {
			if nd != victim {
				seeds = append(seeds, nd.Addr())
			}
		}
		fresh := c.add(t, harnessConfig(c.rng, len(c.nodes), dhtNode), seeds)
		join(fresh)
		alive = append(alive, fresh)
	}
	close(stopFlap)
	<-flapDone

	// Post-churn convergence: a cold node resolves through the DHT alone.
	var seeds []string
	for _, nd := range alive[:3] {
		seeds = append(seeds, nd.Addr())
	}
	joinViaDHT(t, waitFor, c.add(t, harnessConfig(c.rng, len(c.nodes), dhtNode), seeds), gid, 1, 15*time.Second)

	for _, nd := range c.nodes {
		_ = nd.Close()
	}
	waitGoroutines(t, baseline+3, 10*time.Second)
}

// TestDhtRepublishStopRace pins the Leave/Close-vs-republish race: DHT
// republishes posted to the loop while the node leaves the group and shuts
// down must neither block the poster nor leave anything running past
// Close. Run with -race.
func TestDhtRepublishStopRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		c := newLive(t, 3, int64(1000+round), dhtNode)
		rdv := c.nodes[0]
		const gid = "stop-race"
		if err := rdv.CreateGroupMode(gid, wire.BestEffort); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rdv.post(func() { rdv.dhtRepublishAsync(gid) })
			}
		}()
		// Leave mid-hammer (the republish in flight now targets a group the
		// node no longer owns), then tear the whole cluster down under it.
		_ = rdv.Leave(gid)
		for _, nd := range c.nodes {
			_ = nd.Close()
		}
		close(stop)
		wg.Wait()
	}
	waitGoroutines(t, baseline+3, 5*time.Second)
}

// TestDhtLookupWaveQueriesOverlap pins the live lookup's latency contract:
// the α queries of one wave are in flight together. Three contacts each hold
// their reply until all three have received a query; a lookup that sent them
// one at a time would never fill that barrier and would burn a
// dhtQueryTimeout per contact instead.
func TestDhtLookupWaveQueriesOverlap(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	cfg := DefaultConfig(50, coords.Point{0, 0}, 1)
	cfg.HeartbeatInterval = 0 // no background traffic: only the lookup sends
	nd := c.node(t, cfg)

	const contacts = dht.DefaultAlpha
	var eps []transport.Transport
	for i := 0; i < contacts; i++ {
		ep, err := c.Endpoint(fmt.Sprintf("contact-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	var res *dht.Result
	nd.post(func() {
		for _, ep := range eps {
			nd.dhtObserve(wire.PeerInfo{Addr: ep.Addr()})
		}
		nd.dhtLookup(dht.KeyID("overlap"), "", func(r dht.Result) { res = &r })
	})
	// The barrier: no contact replies until every one holds its query.
	c.Run(linkLatency)
	var queries []wire.Message
	for _, ep := range eps {
		for {
			msg, ok := ep.InboxQueue().Pop()
			if !ok {
				t.Fatalf("%s holds no query: the wave's queries were not in flight together", ep.Addr())
			}
			if msg.Type == wire.TDhtFindNode {
				queries = append(queries, msg)
				break
			}
		}
	}
	for i, ep := range eps {
		if err := ep.Send(queries[i].From.Addr, wire.Message{
			Type: wire.TDhtFindNodeResp, From: wire.PeerInfo{Addr: ep.Addr()}, ReqID: queries[i].ReqID,
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.waitFor(t, testTimeout, func() bool { return res != nil }, static("lookup never finished"))
	if res.Queries != contacts || res.Hops != 1 {
		t.Fatalf("lookup ran %d queries in %d waves, want %d in 1", res.Queries, res.Hops, contacts)
	}
	if res.Failures != 0 {
		t.Fatalf("%d of the wave's queries timed out: they were not in flight together", res.Failures)
	}
}
