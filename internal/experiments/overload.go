package experiments

import (
	"fmt"
	"io"
	"time"

	"groupcast/internal/node"
	"groupcast/internal/wire"
)

// This file is the flash-crowd overload experiment: a virtual-time cluster
// with a deliberately tiny inbound queue takes a best-effort publish storm
// at several multiples of that queue's capacity, under both inbox policies
// — the class-prioritized queue (the overload-protection plane) and the
// classless single FIFO (the ablation). The members are slow consumers: a
// payload costs each overloadService of the cluster's service time, so the
// storm overruns their inboxes. Reported per cell: per-class delivery
// derived from the transport's accepted/shed counters, the overload
// controller's engagement (publish rejects, relay sheds, episodes),
// unintended successions, and time-to-recover.
//
// The nodes run on a node.Cluster, so every column is deterministic at any
// -workers count. The policy invariants: under the priority policy
// control-class delivery is 1.000 (control is never shed while a
// best-effort slot remains) and no succession fires; under the classless
// ablation the same storm sheds control messages.

// overloadInboxCap is the per-endpoint inbound queue capacity for every
// cell — small enough that a storm of a few hundred payloads against slow
// consumers overruns it by an order of magnitude.
const overloadInboxCap = 32

// overloadService is the virtual time a member spends on each payload.
const overloadService = 3 * time.Millisecond

// overloadHorizon bounds one cell's drain-and-recover phase.
const overloadHorizon = 10 * time.Second

// overloadCell is one (offered load, inbox policy) configuration.
type overloadCell struct {
	load      int // storm size as a multiple of the inbox capacity
	classless bool
	seed      int64
}

// overloadRow is one cell's measurement.
type overloadRow struct {
	Policy         string // "priority" or "single-queue"
	Load           int
	Storm          int     // offered best-effort publishes
	CtrlDelivery   float64 // 1 - ctrl-sheds / ctrl-offered, from queue counters
	CtrlSheds      uint64
	RelSheds       uint64
	BEDelivery     float64 // same, for the best-effort class
	BESheds        uint64
	PublishRejects uint64
	RelaySheds     uint64
	Episodes       uint64
	Successions    uint64
	TTR            time.Duration
}

// RunOverload runs the flash-crowd sweep (cells fan out across workers
// goroutines; 0 = one per CPU) and writes the comparison table.
func RunOverload(w io.Writer, seed int64, workers int) error {
	loads := []int{4, 10}
	policies := []bool{false, true} // classless?
	cells := make([]overloadCell, 0, len(loads)*len(policies))
	for li, load := range loads {
		for pi, classless := range policies {
			cells = append(cells, overloadCell{
				load: load, classless: classless,
				seed: cellSeed(seed, 83, int64(li), int64(pi)),
			})
		}
	}
	rows, err := mapOrdered(workers, len(cells), func(i int) (overloadRow, error) {
		return runOverloadCell(cells[i])
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# overload: flash-crowd publish storm vs inbox policy")
	fmt.Fprintf(w, "# (inbox capacity %d per node; storm = load x capacity best-effort publishes\n", overloadInboxCap)
	fmt.Fprintf(w, "#  against members that spend %v of virtual time on each payload)\n", overloadService)
	fmt.Fprintf(w, "%-13s %-5s %-6s %-10s %-11s %-10s %-9s %-9s %-8s %-11s %-9s %-12s %s\n",
		"policy", "load", "storm", "ctrl-dlv", "ctrl-sheds", "rel-sheds",
		"be-dlv", "be-sheds", "rejects", "relay-shed", "episodes", "successions", "ttr-ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-5s %-6d %-10.3f %-11d %-10d %-9.3f %-9d %-8d %-11d %-9d %-12d %d\n",
			r.Policy, fmt.Sprintf("%dx", r.Load), r.Storm, r.CtrlDelivery, r.CtrlSheds, r.RelSheds,
			r.BEDelivery, r.BESheds, r.PublishRejects, r.RelaySheds, r.Episodes,
			r.Successions, r.TTR.Milliseconds())
	}
	return nil
}

// runOverloadCell boots one cluster on the cell's inbox policy, fires the
// storm, and measures per-class outcomes from the queue counters.
func runOverloadCell(cell overloadCell) (overloadRow, error) {
	row := overloadRow{Policy: "priority", Load: cell.load}
	if cell.classless {
		row.Policy = "single-queue"
	}
	c, _, nodes, err := bootCluster(cell.seed, 10, func(cfg *node.Config) {
		cfg.HeartbeatInterval = 40 * time.Millisecond
		cfg.OverloadSampleInterval = 20 * time.Millisecond
	}, func(c *node.Cluster) { c.SetInboxPolicy(overloadInboxCap, cell.classless) })
	if err != nil {
		return row, fmt.Errorf("overload %s/%dx: %w", row.Policy, cell.load, err)
	}

	const gid = "crowd"
	rdv := nodes[0]
	// The members are the slow consumers: each payload holds one for
	// overloadService, as a synchronous log on a saturated disk would.
	c.SetServiceTime(func(to string, typ wire.Type) time.Duration {
		if to != rdv.Addr() && typ == wire.TPayload {
			return overloadService
		}
		return 0
	})
	if err := rdv.CreateGroupMode(gid, wire.BestEffort); err != nil {
		return row, err
	}
	if err := rdv.Advertise(gid); err != nil {
		return row, err
	}
	c.Run(300 * time.Millisecond)
	var delivered uint64
	for _, nd := range nodes[1:] {
		if nd.Join(gid, 3*time.Second) != nil {
			return row, fmt.Errorf("overload %s/%dx: member never joined", row.Policy, cell.load)
		}
		nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { delivered++ })
	}
	// Settle: joins acked, first beacons out, so the storm is the only
	// stressor.
	c.Run(300 * time.Millisecond)

	// The flash crowd: inbox-capacity-sized bursts paced faster than the
	// consumers drain, so the members' queues stay saturated across several
	// heartbeat rounds — the storm and the control plane genuinely contend
	// for the same slots. Admission control may push back while a publisher
	// degrades — those are rejects at the edge, accounted, not queue losses.
	row.Storm = cell.load * overloadInboxCap
	for sent := 0; sent < row.Storm; {
		for b := 0; b < overloadInboxCap && sent < row.Storm; b++ {
			_ = rdv.Publish(gid, []byte("flash"))
			sent++
		}
		c.Run(20 * time.Millisecond)
	}
	stormEnd := c.Now()

	// Drain and recover: done when deliveries stop advancing and every
	// node's overload controller reads healthy again.
	lastCount, lastAdvance := delivered, c.Now()
	for c.Now().Before(stormEnd.Add(overloadHorizon)) {
		c.Run(25 * time.Millisecond)
		if delivered != lastCount {
			lastCount, lastAdvance = delivered, c.Now()
			continue
		}
		if c.Now().Sub(lastAdvance) < 300*time.Millisecond {
			continue
		}
		healthy := true
		for _, nd := range nodes {
			if nd.Overloaded() {
				healthy = false
				break
			}
		}
		if healthy {
			break
		}
	}
	row.TTR = c.Now().Sub(stormEnd)

	// Per-class outcomes from the transport counters, merged cluster-wide.
	var agg node.Stats
	for i, nd := range nodes {
		st := nd.Stats()
		if i == 0 {
			agg = st
		} else {
			agg.Merge(st)
		}
		row.Successions += st.Promotions
	}
	row.CtrlSheds = agg.Transport.ControlSheds
	row.RelSheds = agg.Transport.ReliableSheds
	row.BESheds = agg.Transport.BestEffortSheds
	row.PublishRejects = agg.PublishRejects
	row.RelaySheds = agg.RelaySheds
	row.Episodes = agg.OverloadEpisodes
	row.CtrlDelivery = classDelivery(sumInboxAccepted(nodes, wire.ClassControl), row.CtrlSheds)
	row.BEDelivery = classDelivery(sumInboxAccepted(nodes, wire.ClassBestEffort), row.BESheds)
	return row, nil
}

// sumInboxAccepted totals one class's accepted count across the cluster's
// inbound queues.
func sumInboxAccepted(nodes []*node.Node, class wire.Class) uint64 {
	var total uint64
	for _, nd := range nodes {
		if q := nd.InboxQueue(); q != nil {
			total += q.AcceptedByClass()[class]
		}
	}
	return total
}

// classDelivery is the class's queue-level delivery ratio: accepted over
// offered (accepted + shed). 1.0 when the class saw no traffic.
func classDelivery(accepted, shed uint64) float64 {
	if accepted+shed == 0 {
		return 1.0
	}
	return float64(accepted) / float64(accepted+shed)
}
