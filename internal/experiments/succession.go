package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/node"
	"groupcast/internal/peer"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// SuccessionConfig parameterizes the rendezvous-succession experiment
// (-exp succession): for each deputy-roster size k it runs groups on
// clusters of real nodes in virtual time, kills the rendezvous (optionally
// together with some of its deputies), and measures time-to-recover,
// delivery retained, and the control overhead the charter replication costs.
type SuccessionConfig struct {
	NumPeers           int
	Groups             int     // per roster size
	SubscriberFraction float64 // of the population, per group
	RosterSizes        []int   // the deputy counts compared (0 = succession off)
	// DeputyFailureProb is the probability each deputy dies with the root.
	DeputyFailureProb float64
	// SuspectEpochs is the node's suspicion threshold, node.SuspectEpochs
	// (0 means that); deputy #i promotes after SuspectEpochs+i silent epochs.
	SuspectEpochs int
	Seed          int64
	// Workers bounds the fan-out (0: one per CPU); output is identical at
	// any worker count.
	Workers int
}

// DefaultSuccessionConfig is the configuration -exp succession runs.
func DefaultSuccessionConfig(seed int64, workers int) SuccessionConfig {
	return SuccessionConfig{NumPeers: 600, Groups: 8, SubscriberFraction: 0.15, RosterSizes: []int{0, 1, 2, 3},
		DeputyFailureProb: 0.3, SuspectEpochs: node.SuspectEpochs, Seed: seed, Workers: workers}
}

// smallSuccessionConfig is the succession run the golden and the tests
// lock: small, but still exercising every roster size, deputy failures,
// and both tables.
func smallSuccessionConfig(workers int) SuccessionConfig {
	cfg := DefaultSuccessionConfig(11, workers)
	cfg.NumPeers, cfg.Groups, cfg.SubscriberFraction = 200, 4, 0.2
	return cfg
}

// A cluster link's latency per unit of coordinate distance (up to 1.4 ms on
// the 100×100 plane).
const clusterLink = 10 * time.Microsecond

// A cell's heartbeat epoch, the advertisement refresh in epochs, and the
// epochs the survivors get to reattach before the publish.
const (
	successionEpoch   = 100 * time.Millisecond
	successionRefresh = 5
	successionSettle  = 40
)

// successionOutcome is one (k, group) cell. ttr and settle are epochs from
// the crash to the first promotion and to every survivor attached under the
// successor; delivered of the survivors (the successor excepted) delivered
// its first publish after that; joins were sent until then and adverts until
// the promotion's flood ended. split, healed and win follow the cut of the
// successor's first deputy's subtree (sideB members) until that deputy
// promotes, the heal, and whether the one root left has the higher epoch;
// demotions and rejoins (joins) count from the heal.
type successionOutcome struct {
	recovered, split, healed, win bool
	ttr, settle, charters         float64
	survivors, delivered          int
	joins, adverts                float64
	sideB, demotions, rejoins     float64
}

// RunSuccession runs the succession experiment and prints two tables: the
// roster-size sweep (TTR, delivery, overhead) and the partition-heal
// reconciliation summary.
func RunSuccession(w io.Writer, seed int64, workers int) error {
	return RunSuccessionConfig(w, DefaultSuccessionConfig(seed, workers))
}

// RunSuccessionConfig is RunSuccession with an explicit configuration.
func RunSuccessionConfig(w io.Writer, cfg SuccessionConfig) error {
	if cfg.SuspectEpochs != 0 && cfg.SuspectEpochs != node.SuspectEpochs {
		return fmt.Errorf("experiments: succession: the node's SuspectEpochs is %d", node.SuspectEpochs)
	}
	groups, ks := max(cfg.Groups, 1), cfg.RosterSizes
	outs, err := mapOrdered(cfg.Workers, len(ks)*groups, func(t int) (successionOutcome, error) {
		return successionCell(ks[t/groups], cfg, cellSeed(cfg.Seed, int64(t/groups), int64(t%groups)))
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, `# succession: rendezvous crash recovery vs deputy roster size k
# N=%d groups=%d frac=%.2f deputy-failure=%.2f suspect=%d seed=%d
# real nodes in virtual time; the root crash-stops, each deputy with it at the deputy-failure rate;
# ttr = heartbeat epochs from the crash to the first promotion, settle = to every
# survivor attached under the successor (at most %d); delivery = survivors that
# delivered the successor's first publish after that / survivors; joins = join
# messages until that publish; advert msgs = advertisements until the promotion's
# flood ended; charter/ep = charter replications per beacon epoch while the root lived
%-3s %-10s %-10s %-10s %-10s %-10s %-11s %-10s
`, cfg.NumPeers, groups, cfg.SubscriberFraction, cfg.DeputyFailureProb, node.SuspectEpochs, cfg.Seed,
		successionSettle, "k", "recovered", "ttr ep", "settle ep", "delivery", "joins", "charter/ep", "advert msgs")
	for ki, k := range ks {
		var rec int
		var ttr, settle, delivery, joins, charters, adverts float64 // sums over the recovered cells
		for _, c := range outs[ki*groups : (ki+1)*groups] {
			charters += c.charters
			if c.recovered {
				rec++
				ttr += c.ttr
				settle += c.settle
				joins += c.joins
				adverts += c.adverts
				delivery += float64(c.delivered) / float64(max(c.survivors, 1))
			}
		}
		fmt.Fprintf(w, "%-3d %-10s %-10s %-10s %-10s %-10s %-11.1f %-10s\n", k, fmt.Sprintf("%d/%d", rec, groups),
			mean("%.2f", ttr, rec), mean("%.1f", settle, rec), mean("%.3f", delivery, rec),
			mean("%.1f", joins, rec), charters/float64(groups), mean("%.0f", adverts, rec))
	}
	fmt.Fprintf(w, `# succession: partition-heal reconciliation on the groups recovered above
# the successor's first live deputy and its subtree (side b) split off until the
# deputy promotes, then heal; heals = splits that ended with one root;
# epoch wins = heals the higher epoch won; demotions and rejoins (joins) per heal
%-3s %-8s %-12s %-10s %-10s %-10s
`, "k", "heals", "epoch wins", "demotions", "side-b", "rejoins")
	for ki, k := range ks {
		var splits, heals int
		var wins, demotions, sideB, rejoins float64 // sums over the healed cells
		for _, c := range outs[ki*groups : (ki+1)*groups] {
			if c.split {
				splits++
			}
			if c.healed {
				heals++
				if c.win {
					wins += 100 // percent
				}
				demotions += c.demotions
				sideB += c.sideB
				rejoins += c.rejoins
			}
		}
		if k > 0 {
			fmt.Fprintf(w, "%-3d %-8s %-12s %-10s %-10s %-10s\n", k, fmt.Sprintf("%d/%d", heals, splits), mean("%.0f%%", wins, heals),
				mean("%.1f", demotions, heals), mean("%.1f", sideB, heals), mean("%.1f", rejoins, heals))
		}
	}
	return nil
}

// mean formats sum/n, or "-" when n is 0.
func mean(format string, sum float64, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf(format, sum/float64(n))
}

// successionCell runs one cell on a cluster of its own: the overlay
// bootstraps over instant links, one node per 1/N of an epoch, so the build
// costs one epoch and spreads the nodes' epochs over its phase; then links
// take their distance. A random rendezvous creates and advertises the
// group, the subscribers join, and the charter flows for three epochs
// before the root crash-stops with its doomed deputies.
func successionCell(k int, cfg SuccessionConfig, seed int64) (out successionOutcome, err error) {
	const hb, gid = successionEpoch, "succession"
	rng := rand.New(rand.NewSource(seed))
	chaos := transport.NewChaosNetwork(seed)
	sampler := peer.MustTable1Sampler()
	pos := make(map[string]coords.Point, cfg.NumPeers)
	building := true
	c := node.NewCluster(func(from, to string) time.Duration {
		if building {
			return 0
		}
		return time.Duration(coords.Dist(pos[from], pos[to]) * float64(clusterLink))
	})
	nodes := make([]*node.Node, cfg.NumPeers)
	byAddr := make(map[string]*node.Node, cfg.NumPeers)
	for i := range nodes {
		addr := fmt.Sprintf("p%04d", i)
		pos[addr] = coords.Point{rng.Float64() * 100, rng.Float64() * 100}
		ncfg := node.DefaultConfig(float64(sampler.Sample(rng)), pos[addr], rng.Int63())
		ncfg.HeartbeatInterval = hb
		ncfg.OverloadSampleInterval = hb
		ncfg.AdvertiseRefreshEpochs = successionRefresh
		// Neither plane takes part in a succession, and each would cost the
		// cluster more CPU than the tree does; -exp discovery and -exp
		// telemetry measure them.
		ncfg.DisableTelemetry = true
		ncfg.DisableDHT = true
		ncfg.Deputies = k // 0: succession off
		// The split must end before the overlay's death grace does, or no
		// link is left for the two roots to meet over after the heal.
		ncfg.MissedHeartbeatsToFail = 2 * node.SuspectEpochs
		ep, err := c.Endpoint(addr)
		if err != nil {
			return out, err
		}
		nd := node.New(chaos.Wrap(ep), ncfg)
		c.Start(nd)
		var contacts []string
		for _, j := range rng.Perm(i)[:min(i, 5)] {
			contacts = append(contacts, nodes[j].Addr())
		}
		if err := nd.Bootstrap(contacts, hb); err != nil {
			return out, fmt.Errorf("succession: bootstrap %s: %w", addr, err)
		}
		nodes[i], byAddr[addr] = nd, nd
		c.Run(hb / time.Duration(cfg.NumPeers))
	}
	building = false

	rdvIdx := rng.Intn(len(nodes))
	rdv := nodes[rdvIdx]
	if err := rdv.CreateGroup(gid); err != nil {
		return out, err
	}
	if err := rdv.Advertise(gid); err != nil {
		return out, err
	}
	c.Run(hb / 4)
	got := make(map[string]bool) // delivered the one publish, the successor's
	var members []*node.Node
	subs := max(2, int(cfg.SubscriberFraction*float64(cfg.NumPeers)))
	for _, i := range rng.Perm(len(nodes)) {
		if i == rdvIdx {
			continue
		}
		if subs--; subs < 0 {
			break
		}
		if addr := nodes[i].Addr(); nodes[i].Join(gid, 6*time.Second) == nil {
			nodes[i].SetPayloadHandler(func(string, wire.PeerInfo, []byte) { got[addr] = true })
			members = append(members, nodes[i])
		}
	}
	c.Run(hb) // the first beacons arm the deputies; two more are counted
	charters := rdv.Stats().CharterReplications
	c.Run(2 * hb)
	out.charters = float64(rdv.Stats().CharterReplications-charters) / 2

	roster := rdv.Tree(gid).Deputies
	crashed := map[string]bool{rdv.Addr(): true}
	for _, d := range roster {
		if rng.Float64() < cfg.DeputyFailureProb {
			crashed[d] = true
		}
	}
	var alive, survivors, deputies []*node.Node
	for _, d := range roster {
		if !crashed[d] {
			deputies = append(deputies, byAddr[d])
		}
	}
	for _, nd := range nodes {
		if crashed[nd.Addr()] {
			chaos.Crash(nd.Addr())
		} else {
			alive = append(alive, nd)
		}
	}
	for _, m := range members {
		if !crashed[m.Addr()] {
			survivors = append(survivors, m)
		}
	}
	joins, adverts, _ := tallySuccession(alive)
	crashAt := c.Now()
	var winner *node.Node
	// Only a live deputy holds a charter to promote from.
	for end := crashAt.Add(time.Duration(node.SuspectEpochs+len(roster)+2) * hb); winner == nil && len(deputies) > 0 && c.Now().Before(end); {
		c.Run(hb / 50)
		for _, d := range deputies {
			if d.Stats().Promotions > 0 {
				winner = d
				break
			}
		}
	}
	if winner == nil {
		return out, nil
	}
	out.recovered, out.ttr = true, float64(c.Now().Sub(crashAt))/float64(hb)
	c.Run(hb / 2)
	_, a, _ := tallySuccession(alive)
	out.adverts = float64(a - adverts)

	settled := func() bool {
		for _, m := range survivors {
			if tv := m.Tree(gid); !tv.Attached || tv.Epoch < 2 {
				return false
			}
		}
		return true
	}
	for end := c.Now().Add(successionSettle * hb); !settled() && c.Now().Before(end); {
		c.Run(hb / 5)
	}
	out.settle = float64(c.Now().Sub(crashAt)) / float64(hb)
	if err := winner.Publish(gid, []byte("after")); err != nil {
		return out, fmt.Errorf("succession: publish from the successor: %w", err)
	}
	c.Run(hb)
	for _, m := range survivors {
		if m != winner {
			out.survivors++
			if got[m.Addr()] {
				out.delivered++
			}
		}
	}
	j, _, _ := tallySuccession(alive)
	out.joins = float64(j - joins)

	// The split: the successor's first live deputy and its subtree.
	var island []string
	for _, d := range winner.Tree(gid).Deputies {
		if !crashed[d] {
			island = append(island, d)
			break
		}
	}
	if len(island) == 0 {
		return out, nil
	}
	dep := byAddr[island[0]]
	inIsland := map[string]bool{dep.Addr(): true} // children lists may hold a cycle
	for i := 0; i < len(island); i++ {
		tv := byAddr[island[i]].Tree(gid)
		for _, child := range tv.Children {
			if !inIsland[child] {
				inIsland[child] = true
				island = append(island, child)
			}
		}
		if tv.Member {
			out.sideB++
		}
	}
	chaos.Partition(island...)
	for end := c.Now().Add(time.Duration(node.SuspectEpochs+2) * hb); !out.split && c.Now().Before(end); {
		c.Run(hb / 2)
		out.split = dep.Tree(gid).Rendezvous
	}
	splitEpoch := dep.Tree(gid).Epoch
	joins, _, demotions := tallySuccession(alive)
	chaos.Heal()
	for end := c.Now().Add(3 * successionRefresh * hb); out.split && !out.healed && c.Now().Before(end); {
		c.Run(hb / 2)
		var roots []*node.Node
		for _, nd := range alive {
			if nd.Tree(gid).Rendezvous {
				roots = append(roots, nd)
			}
		}
		out.healed = len(roots) == 1 && settled()
		out.win = out.healed && roots[0].Tree(gid).Epoch >= splitEpoch
	}
	j, _, d := tallySuccession(alive)
	out.rejoins, out.demotions = float64(j-joins), float64(d-demotions)
	return out, nil
}

// tallySuccession sums the join and advertisement messages sent, and the
// demotions, across nodes.
func tallySuccession(nodes []*node.Node) (joins, adverts, demotions uint64) {
	for _, nd := range nodes {
		st := nd.Stats()
		joins += st.Sent[wire.TJoin.String()]
		adverts += st.Sent[wire.TAdvertise.String()]
		demotions += st.Demotions
	}
	return joins, adverts, demotions
}
