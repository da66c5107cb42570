package experiments

import (
	"fmt"
	"io"
	"time"

	"groupcast/internal/node"
	"groupcast/internal/telemetry"
	"groupcast/internal/wire"
)

// This file is the fleet-telemetry chaos study: a cluster of real nodes in
// virtual time runs the gossiped health-digest plane until every node knows
// every member and every future survivor holds a fresh view of the root,
// then the group's rendezvous root is crash-stopped and the experiment
// measures fault-detection latency — how many of a survivor's own telemetry
// epochs pass between the last sign of life it accepted from the victim and
// its stale SLO alert firing.
//
// Counting from the last accepted digest (not from the crash) is what makes
// the number an invariant: the victim's final digest keeps echoing through
// gossip for a while after the crash, and a survivor cannot — by definition
// — start suspecting before the last echo reaches it. From that point the
// detector is deterministic: the staleness window is 2 epochs and the sweep
// runs once per epoch, so the alert fires on the first sweep past the
// window, at most 3 of the survivor's own epochs later. converge-ms and
// detect-ms are the cluster's time from the joins to convergence and from
// the crash to the last survivor's alert.

// telemetryDetectBudget is the acceptance bound on detection latency, in
// survivor telemetry epochs.
const telemetryDetectBudget = 3

// telemetryHorizon bounds each cell's convergence and detection phases.
const telemetryHorizon = 5 * time.Second

// telemetryCell is one (cluster size, gossip fan-in) configuration.
type telemetryCell struct {
	size   int
	gossip int
	seed   int64
}

// telemetryRow is one cell's measurement.
type telemetryRow struct {
	Size         int
	Gossip       int
	Converged    bool
	ConvergeTime time.Duration
	Detected     bool          // every survivor fired the stale alert
	DetectEpochs uint64        // max over survivors: last-sign-of-life → alert, in their own epochs
	DetectTime   time.Duration // crash to last survivor's alert
}

// RunTelemetry runs the fault-detection study and writes the table.
func RunTelemetry(w io.Writer, seed int64, workers int) error {
	sizes := []int{6, 12}
	fanins := []int{1, 2}
	cells := make([]telemetryCell, 0, len(sizes)*len(fanins))
	for si, size := range sizes {
		for gi, g := range fanins {
			cells = append(cells, telemetryCell{
				size: size, gossip: g,
				seed: cellSeed(seed, 97, int64(si), int64(gi)),
			})
		}
	}
	rows, err := mapOrdered(workers, len(cells), func(i int) (telemetryRow, error) {
		return runTelemetryCell(cells[i])
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# telemetry: gossiped fleet view vs a root crash-stop")
	fmt.Fprintf(w, "# (health digests piggyback on heartbeats/beacons with the given gossip\n")
	fmt.Fprintf(w, "#  fan-in; once every node knows the fleet the rendezvous root is killed\n")
	fmt.Fprintf(w, "#  and each survivor's stale SLO alert is timed in its own telemetry\n")
	fmt.Fprintf(w, "#  epochs, from the victim's last accepted digest to the alert.\n")
	fmt.Fprintf(w, "#  converged, detected and detect-epochs <= %d are invariants; real nodes\n", telemetryDetectBudget)
	fmt.Fprintln(w, "#  in virtual time)")
	fmt.Fprintf(w, "%-6s %-7s %-10s %-12s %-9s %-14s %s\n",
		"size", "gossip", "converged", "converge-ms", "detected", "detect-epochs", "detect-ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %-7d %-10t %-12d %-9t %-14d %d\n",
			r.Size, r.Gossip, r.Converged, r.ConvergeTime.Milliseconds(),
			r.Detected, r.DetectEpochs, r.DetectTime.Milliseconds())
	}
	return nil
}

// runTelemetryCell boots one cluster, waits for every node's fleet view to
// hold all members fresh, crash-stops the root, and times detection.
func runTelemetryCell(cell telemetryCell) (telemetryRow, error) {
	row := telemetryRow{Size: cell.size, Gossip: cell.gossip}
	c, _, nodes, err := bootCluster(cell.seed, cell.size, func(cfg *node.Config) {
		cfg.HeartbeatInterval = 40 * time.Millisecond
		cfg.OverloadSampleInterval = 20 * time.Millisecond
		cfg.TelemetryGossip = cell.gossip
	}, nil)
	if err != nil {
		return row, fmt.Errorf("telemetry %d/%d: %w", cell.size, cell.gossip, err)
	}

	const gid = "fleet"
	rdv := nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.Reliable); err != nil {
		return row, err
	}
	if err := rdv.Advertise(gid); err != nil {
		return row, err
	}
	c.Run(200 * time.Millisecond)
	for _, nd := range nodes[1:] {
		if nd.Join(gid, 3*time.Second) != nil {
			return row, fmt.Errorf("telemetry %d/%d: member never joined", cell.size, cell.gossip)
		}
	}

	// Phase 1 — convergence: every node's fleet view knows every member
	// (epoch-advancing digest present), and every future survivor holds a
	// currently fresh view of the root it is about to lose. Freshness of
	// *every* pairwise entry is deliberately not required: at gossip fan-in 1
	// a low-degree node's view of a distant peer legitimately flaps in and
	// out of the 2-epoch staleness window — that is the fan-in trade-off this
	// experiment's gossip column exists to show, not a convergence failure.
	victim := rdv.Addr()
	start := c.Now()
	for end := start.Add(telemetryHorizon); c.Now().Before(end); c.Run(20 * time.Millisecond) {
		if row.Converged = fleetConverged(nodes, victim); row.Converged {
			break
		}
	}
	row.ConvergeTime = c.Now().Sub(start)
	if !row.Converged {
		return row, nil
	}

	// Phase 2 — crash-stop the root and time each survivor's stale alert,
	// counted in the survivor's OWN telemetry epochs from the victim's last
	// accepted digest (the fleet entry's SeenEpoch — which the victim's final
	// in-flight and gossip-echoed digests may still advance shortly after
	// the crash) to the epoch of the sweep that raised the alert.
	_ = rdv.Close()
	crash := c.Now()
	pending := make(map[string]bool, cell.size-1)
	for _, nd := range nodes[1:] {
		pending[nd.Addr()] = true
	}
	for end := crash.Add(telemetryHorizon); len(pending) > 0 && c.Now().Before(end); c.Run(10 * time.Millisecond) {
		for _, nd := range nodes[1:] {
			if !pending[nd.Addr()] {
				continue
			}
			for _, a := range nd.SLOActive() {
				if a.Rule != telemetry.RuleStale || a.Node != victim {
					continue
				}
				if lat := detectionEpochs(nd, victim, a); lat > 0 {
					delete(pending, nd.Addr())
					row.DetectEpochs = max(row.DetectEpochs, lat)
					row.DetectTime = c.Now().Sub(crash)
				}
				break
			}
		}
	}
	row.Detected = len(pending) == 0
	return row, nil
}

// fleetConverged reports whether every node's fleet view knows every node
// and, but for the victim's own, holds a fresh view of the victim.
func fleetConverged(nodes []*node.Node, victim string) bool {
	for _, nd := range nodes {
		known, rootFresh := 0, nd.Addr() == victim
		for _, nh := range nd.FleetView() {
			if nh.Epoch > 0 {
				known++
			}
			if nh.Addr == victim && !nh.Stale {
				rootFresh = true
			}
		}
		if known < len(nodes) || !rootFresh {
			return false
		}
	}
	return true
}

// detectionEpochs is one survivor's detection latency in its own telemetry
// epochs: from the epoch in which the victim's digest last advanced in its
// fleet view to the epoch of the sweep that raised alert a. Both are ticks of
// the survivor's own counter, so no wall clock enters the number. A refresh
// that arrives after an alert clears it (a later sweep re-raises), so 0 means
// a was read just before such a refresh and is no longer the live alert.
func detectionEpochs(nd *node.Node, victim string, a telemetry.Alert) uint64 {
	for _, nh := range nd.FleetView() {
		if nh.Addr == victim && a.Epoch > nh.SeenEpoch {
			return a.Epoch - nh.SeenEpoch
		}
	}
	return 0
}
