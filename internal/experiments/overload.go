package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/node"
	"groupcast/internal/peer"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// This file is the flash-crowd overload experiment: a live cluster with a
// deliberately tiny inbound queue takes a best-effort publish storm at
// several multiples of that queue's capacity, under both inbox policies —
// the class-prioritized queue (the overload-protection plane) and the
// classless single FIFO (the ablation). Reported per cell: per-class
// delivery derived from the transport's accepted/shed counters, the
// overload controller's engagement (publish rejects, relay sheds,
// episodes), unintended successions, and time-to-recover.
//
// The policy invariants are deterministic at any -workers count: under the
// priority policy control-class delivery is 1.000 (control is never shed
// while a best-effort slot remains) and no succession fires; under the
// classless ablation the same storm sheds control messages. The remaining
// columns (exact shed counts, be-delivery, ttr-ms) are wall-clock
// observations and vary run to run.

// overloadInboxCap is the per-endpoint inbound queue capacity for every
// cell — small enough that a storm of a few hundred payloads against slow
// consumers overruns it by an order of magnitude.
const overloadInboxCap = 32

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
	fmt.Fprintln(w, "#  against slow consumers. ctrl-delivery and successions are policy")
	fmt.Fprintln(w, "#  invariants — deterministic at any -workers; shed counts, be-delivery and")
	fmt.Fprintln(w, "#  ttr-ms are wall-clock measurements)")
	fmt.Fprintf(w, "%-13s %-5s %-6s %-10s %-11s %-10s %-9s %-9s %-8s %-11s %-9s %-12s %s\n",
		"policy", "load", "storm", "ctrl-dlv", "ctrl-sheds", "rel-sheds",
		"be-dlv", "be-sheds", "rejects", "relay-shed", "episodes", "successions", "ttr-ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-5dx %-6d %-10.3f %-11d %-10d %-9.3f %-9d %-8d %-11d %-9d %-12d %d\n",
			r.Policy, r.Load, r.Storm, r.CtrlDelivery, r.CtrlSheds, r.RelSheds,
			r.BEDelivery, r.BESheds, r.PublishRejects, r.RelaySheds, r.Episodes,
			r.Successions, r.TTR.Milliseconds())
	}
	return nil
}

// runOverloadCell builds one live cluster on the cell's inbox policy, fires
// the storm, and measures per-class outcomes from the queue counters.
func runOverloadCell(c overloadCell) (overloadRow, error) {
	row := overloadRow{Policy: "priority", Load: c.load}
	if c.classless {
		row.Policy = "single-queue"
	}
	mem := transport.NewMemNetwork()
	mem.SetInboxPolicy(overloadInboxCap, c.classless)
	rng := rand.New(rand.NewSource(c.seed))
	sampler := peer.MustTable1Sampler()

	const clusterSize = 10
	nodes := make([]*node.Node, 0, clusterSize)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for i := 0; i < clusterSize; i++ {
		cfg := node.DefaultConfig(float64(sampler.Sample(rng)),
			coords.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(i+1))
		cfg.HeartbeatInterval = 40 * time.Millisecond
		cfg.OverloadSampleInterval = 20 * time.Millisecond
		if i > 0 {
			cfg.Tracer = trace.New(64, slowSink{}) // the members are the slow consumers
		}
		nd := node.New(mem.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for j := len(nodes) - 1; j >= 0 && len(contacts) < 5; j-- {
			contacts = append(contacts, nodes[j].Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			return row, fmt.Errorf("overload %s/%dx: bootstrap node %d: %w", row.Policy, c.load, i, err)
		}
		nodes = append(nodes, nd)
	}

	const gid = "crowd"
	rdv := nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.BestEffort); err != nil {
		return row, err
	}
	if err := rdv.Advertise(gid); err != nil {
		return row, err
	}
	time.Sleep(300 * time.Millisecond)
	var delivered atomic.Uint64
	for _, nd := range nodes[1:] {
		joined := false
		for attempt := 0; attempt < 4 && !joined; attempt++ {
			joined = nd.Join(gid, time.Second) == nil
		}
		if !joined {
			return row, fmt.Errorf("overload %s/%dx: member never joined", row.Policy, c.load)
		}
		nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { delivered.Add(1) })
	}
	// Settle: joins acked, first beacons out, so the storm is the only
	// stressor.
	time.Sleep(300 * time.Millisecond)

	// The flash crowd: inbox-capacity-sized bursts paced faster than the
	// consumers drain, so the members' queues stay saturated across several
	// heartbeat rounds — the storm and the control plane genuinely contend
	// for the same slots. Admission control may push back while a publisher
	// degrades — those are rejects at the edge, accounted, not queue losses.
	row.Storm = c.load * overloadInboxCap
	for sent := 0; sent < row.Storm; {
		for b := 0; b < overloadInboxCap && sent < row.Storm; b++ {
			_ = rdv.Publish(gid, []byte("flash"))
			sent++
		}
		time.Sleep(20 * time.Millisecond)
	}
	stormEnd := time.Now()

	// Drain and recover: done when deliveries stop advancing and every
	// node's overload controller reads healthy again.
	lastCount, lastAdvance := delivered.Load(), time.Now()
	for time.Now().Before(stormEnd.Add(overloadHorizon)) {
		time.Sleep(25 * time.Millisecond)
		if n := delivered.Load(); n != lastCount {
			lastCount, lastAdvance = n, time.Now()
			continue
		}
		if time.Since(lastAdvance) < 300*time.Millisecond {
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
	row.TTR = time.Since(stormEnd)

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

// slowSink is the storm's slow consumer: a trace sink that stalls a
// member's loop for every payload it takes in, as a synchronous log on a
// saturated disk would. The storm then overruns the inbox and the policy
// decides what sheds. (A slow PayloadHandler no longer does: it runs off
// the loop.)
type slowSink struct{}

func (slowSink) Record(ev trace.Event) {
	if ev.Kind == trace.KindRecv && ev.Msg == wire.TPayload.String() {
		time.Sleep(3 * time.Millisecond)
	}
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
