package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"groupcast/internal/metrics"
	"groupcast/internal/node"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// This file is the data-plane goodput experiment: clusters of real nodes in
// virtual time publish a fixed payload schedule from two sources while
// seeded per-link loss runs, and the three delivery modes are compared —
// best-effort tree flooding against the reliable (NACK + digest
// anti-entropy) and reliable-ordered (per-source FIFO release) data planes.
// Every column is deterministic for a fixed seed at any -workers count.

// goodputScenario is one loss configuration.
type goodputScenario struct {
	name string
	desc string
	// schedule is the link-fault script armed after membership is
	// established (offsets from arming).
	schedule []transport.FaultEvent
	// lossy marks scenarios where best-effort delivery is expected to be
	// incomplete.
	lossy bool
}

func goodputScenarios() []goodputScenario {
	return []goodputScenario{
		{
			name: "no-loss",
			desc: "fault-free fabric (baseline: every mode should be complete)",
		},
		{
			name: "5%-loss",
			desc: "5% uniform per-link loss for the whole run",
			schedule: []transport.FaultEvent{
				transport.LinkRuleAt(0, "", "", transport.LinkRule{Drop: 0.05}),
			},
			lossy: true,
		},
		{
			name: "burst-loss",
			desc: "25% loss burst during the publish phase, settling to 5%",
			schedule: []transport.FaultEvent{
				transport.LinkRuleAt(0, "", "", transport.LinkRule{Drop: 0.25}),
				transport.LinkRuleAt(time.Second, "", "", transport.LinkRule{Drop: 0.05}),
			},
			lossy: true,
		},
	}
}

// goodputRow is one (scenario, delivery mode) measurement.
type goodputRow struct {
	Scenario string
	Mode     wire.DeliveryMode
	Members  int
	// Published is the total payload count across both publishers.
	Published int
	// Complete reports that every member delivered every foreign payload
	// within the horizon; FIFO that every member's per-source deliveries
	// were in exact publish order.
	Complete bool
	FIFO     bool
	// Delivery is the delivered fraction of the expected member deliveries
	// at the horizon (1.0 when Complete); MinMember is the worst single
	// member's fraction — the fairness signal that exposes an orphaned
	// subtree a cluster-wide average would hide.
	Delivery  float64
	MinMember float64
	// Dupes, Nacks, Retransmits sum the respective node counters across the
	// cluster; RecoveryMs is how long after the last publish the cluster
	// took to become complete.
	Dupes       uint64
	Nacks       uint64
	Retransmits uint64
	RecoveryMs  int64
}

// goodputHorizon bounds a cell from its last publish; a cell not complete
// by then is reported as complete=no.
const (
	goodputNodes     = 12
	goodputPerSource = 25
	goodputHorizon   = 10 * time.Second
)

// RunGoodput runs the loss × delivery-mode sweep (cells fan out across
// workers goroutines; 0 = one per CPU) and writes the comparison tables.
func RunGoodput(w io.Writer, seed int64, workers int) error {
	scenarios := goodputScenarios()
	modes := []wire.DeliveryMode{wire.BestEffort, wire.Reliable, wire.ReliableOrdered}
	rows, err := runGoodputRows(seed, workers)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# goodput: reliable data plane vs best-effort flooding under seeded link loss,")
	fmt.Fprintln(w, "# on real nodes in virtual time")
	ri := 0
	for _, sc := range scenarios {
		fmt.Fprintf(w, "\n## scenario %s — %s\n", sc.name, sc.desc)
		fmt.Fprintf(w, "%-17s %-8s %-10s %-9s %-5s %-9s %-11s %-6s %-6s %-12s %s\n",
			"mode", "members", "published", "complete", "fifo", "delivery",
			"min-member", "dupes", "nacks", "retransmits", "recovery-ms")
		for range modes {
			r := rows[ri]
			ri++
			recovery := "—"
			if r.Complete {
				recovery = fmt.Sprint(r.RecoveryMs)
			}
			fmt.Fprintf(w, "%-17s %-8d %-10d %-9s %-5s %-9.3f %-11.3f %-6d %-6d %-12d %s\n",
				r.Mode, r.Members, r.Published, yesNo(r.Complete), yesNo(r.FIFO),
				r.Delivery, r.MinMember, r.Dupes, r.Nacks, r.Retransmits, recovery)
		}
	}
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// runGoodputRows produces the sweep's rows in (scenario, mode) order.
func runGoodputRows(seed int64, workers int) ([]goodputRow, error) {
	scenarios := goodputScenarios()
	modes := []wire.DeliveryMode{wire.BestEffort, wire.Reliable, wire.ReliableOrdered}
	type cell struct {
		scen goodputScenario
		mode wire.DeliveryMode
		seed int64
	}
	cells := make([]cell, 0, len(scenarios)*len(modes))
	for si, sc := range scenarios {
		for mi, mode := range modes {
			cells = append(cells, cell{sc, mode, cellSeed(seed, 83, int64(si), int64(mi))})
		}
	}
	return mapOrdered(workers, len(cells), func(i int) (goodputRow, error) {
		c := cells[i]
		return runGoodputCell(c.scen, c.mode, c.seed)
	})
}

// runGoodputCell boots one cluster, arms the loss schedule, runs the fixed
// publish schedule from two sources, and scores the delivery.
func runGoodputCell(sc goodputScenario, mode wire.DeliveryMode, seed int64) (goodputRow, error) {
	row := goodputRow{Scenario: sc.name, Mode: mode}
	c, chaos, nodes, err := bootCluster(seed, goodputNodes, func(cfg *node.Config) {
		cfg.HeartbeatInterval = 150 * time.Millisecond
		cfg.BeaconGraceEpochs = 4
	}, nil)
	if err != nil {
		return row, fmt.Errorf("goodput %s/%s: %w", sc.name, mode, err)
	}

	const gid = "goodput"
	rdv := nodes[0]
	if err := rdv.CreateGroupMode(gid, mode); err != nil {
		return row, err
	}
	if err := rdv.Advertise(gid); err != nil {
		return row, err
	}
	c.Run(300 * time.Millisecond)

	// Membership and recording (the fault-free phase). Each member records,
	// per source, the payload indices in arrival order.
	seqs := make(map[string]map[string][]int, goodputNodes)
	install := func(nd *node.Node) {
		rec := make(map[string][]int)
		seqs[nd.Addr()] = rec
		nd.SetPayloadHandler(func(_ string, from wire.PeerInfo, data []byte) {
			var idx int
			if _, err := fmt.Sscanf(string(data), "p%d", &idx); err == nil {
				rec[from.Addr] = append(rec[from.Addr], idx)
			}
		})
	}
	install(rdv)
	members := []*node.Node{rdv}
	for _, nd := range nodes[1:] {
		if nd.Join(gid, 3*time.Second) != nil {
			return row, fmt.Errorf("goodput %s/%s: node %s never joined", sc.name, mode, nd.Addr())
		}
		install(nd)
		members = append(members, nd)
	}
	row.Members = len(members)
	// One beacon round so every member has learned the group's mode before
	// payloads flow.
	c.Run(400 * time.Millisecond)
	chaos.PlaySchedule(sc.schedule)

	// Fixed publish schedule: the rendezvous and one mid-cluster member each
	// publish goodputPerSource payloads, interleaved.
	pubs := []*node.Node{rdv, nodes[goodputNodes/2]}
	for i := 0; i < goodputPerSource; i++ {
		for _, p := range pubs {
			_ = p.Publish(gid, []byte(fmt.Sprintf("p%d", i)))
		}
		c.Run(5 * time.Millisecond)
	}
	row.Published = goodputPerSource * len(pubs)
	publishedAt := c.Now()

	// Per member, the payloads expected (every foreign source's; the
	// publishers don't hear their own stream) and delivered.
	fractions := func() (expected, delivered int, fracs []float64) {
		for _, m := range members {
			want, got := 0, 0
			for _, p := range pubs {
				if p != m {
					want += goodputPerSource
					got += len(seqs[m.Addr()][p.Addr()])
				}
			}
			expected, delivered = expected+want, delivered+got
			fracs = append(fracs, float64(got)/float64(want))
		}
		return expected, delivered, fracs
	}
	for end := publishedAt.Add(goodputHorizon); c.Now().Before(end); c.Run(25 * time.Millisecond) {
		if expected, delivered, _ := fractions(); delivered >= expected {
			row.Complete, row.RecoveryMs = true, c.Now().Sub(publishedAt).Milliseconds()
			break
		}
	}
	expected, delivered, fracs := fractions()
	row.Delivery = float64(delivered) / float64(expected)
	if sum, err := metrics.Summarize(fracs); err == nil {
		row.MinMember = sum.Min
	}

	// FIFO: every member's per-source delivery index lists must be strictly
	// increasing (complete cells: exactly 0..N-1).
	row.FIFO = true
	for _, m := range members {
		for src, got := range seqs[m.Addr()] {
			if src != m.Addr() && !sort.IntsAreSorted(got) {
				row.FIFO = false
			}
		}
	}
	for _, nd := range nodes {
		st := nd.Stats()
		row.Dupes += st.DuplicatesDropped
		row.Nacks += st.NacksSent
		row.Retransmits += st.Retransmits
	}
	return row, nil
}
