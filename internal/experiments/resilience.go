package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/node"
	"groupcast/internal/peer"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// This file is the chaos-soak resilience experiment: clusters of real nodes
// in virtual time run under scripted fault schedules (seeded loss,
// crash-stops, partitions) and the node's one tree repair — backup access
// points first, then the join a Join makes — is measured. Reported per
// scenario: surviving members reattached, delivery ratio, time-to-recover,
// and the control messages spent on repair, split by the route each repair
// took. Every column is deterministic for a fixed seed at any -workers
// count.

// resilienceScenario is one chaos-soak configuration.
type resilienceScenario struct {
	name  string
	desc  string
	nodes int
	// stride makes every stride-th node after the rendezvous a member.
	stride int
	// crashes is how many victims the schedule faults: the busiest tree
	// nodes other than the rendezvous, members and pure forwarders alike.
	crashes int
	// schedule builds the scripted fault sequence once the victims are
	// known. Offsets are measured from the moment the schedule is armed.
	schedule func(victims []string) []transport.FaultEvent
	// victimSurvives marks scenarios whose fault is transient (partition):
	// the victims are expected back and count as survivors.
	victimSurvives bool
}

// faultAt is when every scenario's primary fault fires (time-to-recover is
// measured from this offset).
const faultAt = 200 * time.Millisecond

// resilienceHorizon bounds one scenario run; a cluster that has not
// recovered by then is reported as recovered=no.
const resilienceHorizon = 10 * time.Second

func resilienceScenarios() []resilienceScenario {
	return []resilienceScenario{
		{
			name:  "parent-crash/5%-loss",
			desc:  "crash-stop the busiest tree parent under 5% uniform message loss",
			nodes: 18, stride: 1, crashes: 1,
			schedule: func(victims []string) []transport.FaultEvent {
				events := []transport.FaultEvent{transport.LinkRuleAt(0, "", "", transport.LinkRule{Drop: 0.05})}
				return append(events, crashAll(victims)...)
			},
		},
		{
			name:  "parent-crash/burst-loss",
			desc:  "crash-stop the busiest tree parent during a 25% loss burst that settles to 5%",
			nodes: 18, stride: 1, crashes: 1,
			schedule: func(victims []string) []transport.FaultEvent {
				events := []transport.FaultEvent{transport.LinkRuleAt(0, "", "", transport.LinkRule{Drop: 0.25})}
				events = append(events, crashAll(victims)...)
				return append(events, transport.LinkRuleAt(2*time.Second, "", "", transport.LinkRule{Drop: 0.05}))
			},
		},
		{
			name:  "partition-heal/2%-loss",
			desc:  "isolate the busiest tree parent for 3s (split-brain), then heal",
			nodes: 18, stride: 1, crashes: 1,
			schedule: func(victims []string) []transport.FaultEvent {
				return []transport.FaultEvent{
					transport.LinkRuleAt(0, "", "", transport.LinkRule{Drop: 0.02}),
					transport.PartitionAt(faultAt, victims...),
					transport.HealAt(faultAt + 3*time.Second),
				}
			},
			victimSurvives: true,
		},
		{
			name:  "interior-burst",
			desc:  "crash-stop the 8 busiest tree nodes at once, every 4th node a member, no loss",
			nodes: 128, stride: 4, crashes: 8,
			schedule: crashAll,
		},
	}
}

// crashAll crash-stops every victim at faultAt.
func crashAll(victims []string) []transport.FaultEvent {
	events := make([]transport.FaultEvent, 0, len(victims))
	for _, v := range victims {
		events = append(events, transport.CrashAt(faultAt, v))
	}
	return events
}

// resilienceRow is one scenario's measurement.
type resilienceRow struct {
	Scenario   string
	Members    int
	Survivors  int
	Reattached int
	Roots      int
	Delivery   float64
	Recovered  bool
	TTR        time.Duration
	RepairMsgs uint64
	ViaBackup  uint64
	ViaSearch  uint64
}

// RunResilience runs every chaos-soak scenario (cells fan out across
// workers goroutines; 0 = one per CPU) and writes one table per scenario.
func RunResilience(w io.Writer, seed int64, workers int) error {
	scenarios := resilienceScenarios()
	rows, err := mapOrdered(workers, len(scenarios), func(si int) (resilienceRow, error) {
		return runResilienceCell(scenarios[si], cellSeed(seed, 71, int64(si), 0))
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# resilience: chaos soak on real nodes in virtual time, tree repair through backup")
	fmt.Fprintln(w, "# access points, then a join; roots = rendezvous among the publisher and the survivors")
	fmt.Fprintln(w, "# (recovered needs one); repair-msgs, via-backup, via-search count from the fault")
	for si, sc := range scenarios {
		r := rows[si]
		fmt.Fprintf(w, "\n## scenario %s — %s\n", sc.name, sc.desc)
		fmt.Fprintf(w, "%-8s %-10s %-11s %-6s %-9s %-10s %-7s %-12s %-11s %s\n",
			"members", "survivors", "reattached", "roots", "delivery", "recovered",
			"ttr-ms", "repair-msgs", "via-backup", "via-search")
		ttr := "—"
		if r.Recovered {
			ttr = fmt.Sprint(r.TTR.Milliseconds())
		}
		fmt.Fprintf(w, "%-8d %-10d %-11d %-6d %-9.2f %-10s %-7s %-12d %-11d %d\n",
			r.Members, r.Survivors, r.Reattached, r.Roots, r.Delivery, yesNo(r.Recovered),
			ttr, r.RepairMsgs, r.ViaBackup, r.ViaSearch)
	}
	return nil
}

// runResilienceCell boots one cluster, arms the scenario's fault schedule,
// and measures the repair.
func runResilienceCell(sc resilienceScenario, seed int64) (resilienceRow, error) {
	row := resilienceRow{Scenario: sc.name}
	c, chaos, nodes, err := bootCluster(seed, sc.nodes, func(cfg *node.Config) {
		cfg.HeartbeatInterval = 150 * time.Millisecond
		cfg.BeaconGraceEpochs = 4
		cfg.AdvertiseRefreshEpochs = 3
	}, nil)
	if err != nil {
		return row, fmt.Errorf("resilience %s: %w", sc.name, err)
	}

	const gid = "resilience"
	rdv := nodes[0]
	if err := rdv.CreateGroup(gid); err != nil {
		return row, err
	}
	if err := rdv.Advertise(gid); err != nil {
		return row, err
	}
	c.Run(300 * time.Millisecond)

	// Membership: every stride-th node after the rendezvous joins (the
	// fault-free phase), counting deliveries per member.
	got := make(map[string]int)
	var members []*node.Node
	for i := 1; i < len(nodes); i += sc.stride {
		nd := nodes[i]
		if nd.Join(gid, 3*time.Second) != nil {
			continue
		}
		addr := nd.Addr()
		nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { got[addr]++ })
		members = append(members, nd)
	}
	row.Members = len(members)
	// Let beacons flow once so backup access points are distributed before
	// the faults begin.
	c.Run(400 * time.Millisecond)

	// The victims: the tree nodes other than the rendezvous, members and
	// pure forwarders, currently relaying for the most children (ties broken
	// by address).
	type treeNode struct {
		addr string
		kids int
	}
	var tree []treeNode
	for _, nd := range nodes[1:] {
		if tv := nd.Tree(gid); tv.Attached {
			tree = append(tree, treeNode{nd.Addr(), len(tv.Children)})
		}
	}
	slices.SortFunc(tree, func(a, b treeNode) int {
		return cmp.Or(b.kids-a.kids, strings.Compare(a.addr, b.addr))
	})
	victims := make([]string, 0, sc.crashes)
	for _, tn := range tree[:min(sc.crashes, len(tree))] {
		victims = append(victims, tn.addr)
	}
	survivors := make([]*node.Node, 0, len(members))
	for _, m := range members {
		if sc.victimSurvives || !slices.Contains(victims, m.Addr()) {
			survivors = append(survivors, m)
		}
	}
	row.Survivors = len(survivors)

	msgs, viaBackup, viaSearch := repairTally(survivors)
	chaos.PlaySchedule(sc.schedule(victims))
	armed := c.Now()

	// Publish from the rendezvous until the group has one root again, every
	// survivor is reattached and has heard a post-fault payload, or the
	// horizon passes. Payload loss is expected (faults are live); the steady
	// publish stream means one delivered payload per survivor is enough to
	// prove a working tree.
	seq := 0
	for end := armed.Add(resilienceHorizon); c.Now().Before(end); c.Run(40 * time.Millisecond) {
		if c.Now().Sub(armed) > faultAt {
			seq++
			_ = rdv.Publish(gid, []byte(fmt.Sprintf("seq-%d", seq)))
		}
		if reattached, reached, roots := resilienceProgress(rdv, survivors, gid, got); seq > 0 &&
			reattached == len(survivors) && reached == len(survivors) && roots == 1 {
			row.Recovered, row.TTR = true, c.Now().Sub(armed.Add(faultAt))
			break
		}
	}
	reattached, reached, roots := resilienceProgress(rdv, survivors, gid, got)
	row.Reattached, row.Roots = reattached, roots
	if len(survivors) > 0 {
		row.Delivery = float64(reached) / float64(len(survivors))
	}
	m, b, s := repairTally(survivors)
	row.RepairMsgs, row.ViaBackup, row.ViaSearch = m-msgs, b-viaBackup, s-viaSearch
	return row, nil
}

// resilienceProgress counts survivors currently attached to the tree,
// survivors that have heard at least one post-fault payload, and the
// group's roots among the rendezvous and the survivors. A deputy cut off
// from the root promotes itself, and the tree stays split until the two
// roots meet.
func resilienceProgress(rdv *node.Node, survivors []*node.Node, gid string, got map[string]int) (reattached, reached, roots int) {
	if rdv.Tree(gid).Rendezvous {
		roots++
	}
	for _, m := range survivors {
		tv := m.Tree(gid)
		if tv.Attached {
			reattached++
		}
		if tv.Rendezvous {
			roots++
		}
		if got[m.Addr()] > 0 {
			reached++
		}
	}
	return reattached, reached, roots
}

// repairTally sums over nodes the control messages spent on tree repair
// (joins, join acks, searches and search hits) and the repairs done through
// a backup access point and through the join fallback.
func repairTally(nodes []*node.Node) (msgs, viaBackup, viaSearch uint64) {
	for _, nd := range nodes {
		st := nd.Stats()
		msgs += st.Sent["join"] + st.Sent["join-ack"] + st.Sent["search"] + st.Sent["search-hit"]
		viaBackup += st.RepairsViaBackup
		viaSearch += st.RepairsViaSearch
	}
	return msgs, viaBackup, viaSearch
}

// bootCluster starts size real nodes on a virtual-time cluster behind one
// chaos layer, everything drawn from seed: Table 1 capacities, coordinates
// on a 100×100 plane, links that take clusterLink per unit of distance, and
// each node bootstrapping through the five before it, one per 1/size of a
// heartbeat so their epochs spread over its phase. tune sets each node's
// configuration; setup, when not nil, sets up the cluster before the first
// endpoint attaches.
func bootCluster(seed int64, size int, tune func(*node.Config), setup func(*node.Cluster)) (*node.Cluster, *transport.ChaosNetwork, []*node.Node, error) {
	rng := rand.New(rand.NewSource(seed))
	sampler := peer.MustTable1Sampler()
	chaos := transport.NewChaosNetwork(seed)
	pos := make(map[string]coords.Point, size)
	c := node.NewCluster(func(from, to string) time.Duration {
		return time.Duration(coords.Dist(pos[from], pos[to]) * float64(clusterLink))
	})
	if setup != nil {
		setup(c)
	}
	nodes := make([]*node.Node, 0, size)
	for i := 0; i < size; i++ {
		addr := fmt.Sprintf("n%02d", i)
		capacity := float64(sampler.Sample(rng))
		pos[addr] = coords.Point{rng.Float64() * 100, rng.Float64() * 100}
		cfg := node.DefaultConfig(capacity, pos[addr], int64(i+1))
		tune(&cfg)
		ep, err := c.Endpoint(addr)
		if err != nil {
			return nil, nil, nil, err
		}
		nd := node.New(chaos.Wrap(ep), cfg)
		c.Start(nd)
		var contacts []string
		for j := len(nodes) - 1; j >= 0 && len(contacts) < 5; j-- {
			contacts = append(contacts, nodes[j].Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			return nil, nil, nil, fmt.Errorf("bootstrap node %d: %w", i, err)
		}
		nodes = append(nodes, nd)
		c.Run(cfg.HeartbeatInterval / time.Duration(size))
	}
	return c, chaos, nodes, nil
}
