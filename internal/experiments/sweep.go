package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"groupcast/internal/overlay"
	"groupcast/internal/protocol"
)

// OverlayKind names the two overlay construction schemes under comparison.
type OverlayKind string

// Overlay kinds of the evaluation.
const (
	KindGroupCast OverlayKind = "GroupCast"
	KindPLOD      OverlayKind = "random-power-law"
)

// SweepConfig parameterizes the Figures 11-17 parameter sweep.
type SweepConfig struct {
	// Sizes are the overlay populations (paper: 1000..32000 doubling).
	Sizes []int
	// GroupsPerOverlay is how many rendezvous points (groups) are averaged
	// per overlay (paper: 10).
	GroupsPerOverlay int
	// SubscriberFraction of the population subscribes to each group.
	SubscriberFraction float64
	// Seed drives the sweep.
	Seed int64
	// UseCoordinates propagates to the pipeline (GNP vs exact distances).
	UseCoordinates bool
	// Topologies is how many independent IP underlays each cell is averaged
	// over ("Each experiment is repeated over 10 IP network topologies");
	// 0 or 1 means a single topology.
	Topologies int
	// Workers bounds how many goroutines the sweep fans its cells out to.
	// 0 means DefaultWorkers() (one per CPU); 1 runs fully serial. Every
	// cell's random stream derives only from (Seed, size, topologyIndex,
	// comboIndex, groupIndex), so the result is bit-identical at any worker
	// count.
	Workers int
}

// DefaultSweepConfig mirrors the paper's sweep.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Sizes:              []int{1000, 2000, 4000, 8000, 16000, 32000},
		GroupsPerOverlay:   10,
		SubscriberFraction: 0.1,
		Seed:               1,
		UseCoordinates:     true,
	}
}

// SweepRow aggregates one (size, overlay, scheme) cell of the evaluation,
// averaged over the configured number of groups.
type SweepRow struct {
	N       int
	Overlay OverlayKind
	Scheme  protocol.Scheme

	// Figure 11: mean messages per group.
	AdMessages  float64
	SubMessages float64
	// Figure 12: rates.
	ReceivingRate float64
	SuccessRate   float64
	// Figure 13: mean ripple-search latency over subscribers that searched.
	LookupLatencyMS float64

	// Figures 14-17 (ESM application metrics, from the rendezvous source).
	DelayPenalty  float64
	LinkStress    float64
	NodeStress    float64
	OverloadIndex float64
}

// RunSweep executes the sweep and returns one row per (size, overlay,
// scheme) combination, in deterministic order. With cfg.Topologies > 1 every
// cell is the mean over that many independent underlays.
//
// The sweep fans out across cfg.Workers goroutines at two levels: one job
// per (size, topology) pair — each job owns its underlay, attachment,
// coordinates and overlay graphs — and, inside each job, one task per
// (combo, group) cell sharing those structures read-only. Every random
// stream is seeded from the cell's identity alone, and reduction walks cells
// in index order, so a fixed Seed produces bit-identical rows at any worker
// count.
func RunSweep(cfg SweepConfig) ([]SweepRow, error) {
	if len(cfg.Sizes) == 0 {
		cfg = DefaultSweepConfig()
	}
	topos := cfg.Topologies
	if topos < 1 {
		topos = 1
	}
	// One pipeline job per (size, topology): job index si*topos + ti.
	results, err := mapOrdered(cfg.Workers, len(cfg.Sizes)*topos, func(j int) ([]SweepRow, error) {
		return runSweepCell(cfg, cfg.Sizes[j/topos], j%topos)
	})
	if err != nil {
		return nil, err
	}
	// Reduce topology repetitions into per-size means, in index order.
	rows := make([]SweepRow, 0, 4*len(cfg.Sizes))
	for si := range cfg.Sizes {
		acc := results[si*topos]
		for ti := 1; ti < topos; ti++ {
			for i, r := range results[si*topos+ti] {
				acc[i] = addRows(acc[i], r)
			}
		}
		for i := range acc {
			acc[i] = scaleRow(acc[i], 1/float64(topos))
		}
		rows = append(rows, acc...)
	}
	return rows, nil
}

// sweepCombo is one (overlay, scheme) combination of the evaluation grid.
type sweepCombo struct {
	kind   OverlayKind
	graph  *overlay.Graph
	levels protocol.ResourceLevels
	scheme protocol.Scheme
}

// sweepCombos enumerates the grid in its fixed rendering order.
func sweepCombos(gcGraph, plGraph *overlay.Graph, gcLevels, plLevels protocol.ResourceLevels) []sweepCombo {
	return []sweepCombo{
		{KindGroupCast, gcGraph, gcLevels, protocol.SSA},
		{KindGroupCast, gcGraph, gcLevels, protocol.NSSA},
		{KindPLOD, plGraph, plLevels, protocol.SSA},
		{KindPLOD, plGraph, plLevels, protocol.NSSA},
	}
}

// runSweepCell runs one (size, topology) job: it builds a private
// environment (underlay, attachment, coordinates, both overlays) seeded from
// the cell identity, then fans the (combo, group) cells out over the worker
// pool and reduces them in index order.
func runSweepCell(cfg SweepConfig, n, ti int) ([]SweepRow, error) {
	envSeed := cellSeed(cfg.Seed, int64(n), int64(ti))
	pcfg := DefaultPipelineConfig(n, envSeed)
	pcfg.UseCoordinates = cfg.UseCoordinates
	p, err := BuildPipeline(pcfg)
	if err != nil {
		return nil, err
	}
	// The two overlay constructions are independent builds with their own
	// RNGs; run them concurrently.
	var (
		gcGraph, plGraph   *overlay.Graph
		gcLevels, plLevels protocol.ResourceLevels
	)
	if err := inParallel(cfg.Workers,
		func() (err error) {
			gcGraph, gcLevels, _, err = p.GroupCastOverlay(envSeed)
			return err
		},
		func() (err error) {
			plGraph, plLevels, err = p.PLODOverlay(envSeed)
			return err
		},
	); err != nil {
		return nil, err
	}
	combos := sweepCombos(gcGraph, plGraph, gcLevels, plLevels)
	// Alive sets are shared read-only by every group task on the same graph.
	gcAlive, plAlive := gcGraph.AlivePeers(), plGraph.AlivePeers()

	groups := cfg.GroupsPerOverlay
	if groups < 1 {
		groups = 1
	}
	// One task per (combo, group) cell: task index ci*groups + gi.
	outs, err := mapOrdered(cfg.Workers, len(combos)*groups, func(t int) (groupOutcome, error) {
		ci, gi := t/groups, t%groups
		c := combos[ci]
		alive := gcAlive
		if c.kind == KindPLOD {
			alive = plAlive
		}
		rng := rand.New(rand.NewSource(cellSeed(cfg.Seed, int64(n), int64(ti), int64(ci), int64(gi))))
		return p.runGroup(c.graph, alive, c.levels, c.scheme, cfg, rng)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(combos))
	for ci, c := range combos {
		rows[ci] = reduceCell(p.Cfg.NumPeers, c.kind, c.scheme, outs[ci*groups:(ci+1)*groups])
	}
	return rows, nil
}

// addRows sums the metric fields of two rows of the same cell.
func addRows(a, b SweepRow) SweepRow {
	a.AdMessages += b.AdMessages
	a.SubMessages += b.SubMessages
	a.ReceivingRate += b.ReceivingRate
	a.SuccessRate += b.SuccessRate
	a.LookupLatencyMS += b.LookupLatencyMS
	a.DelayPenalty += b.DelayPenalty
	a.LinkStress += b.LinkStress
	a.NodeStress += b.NodeStress
	a.OverloadIndex += b.OverloadIndex
	return a
}

func scaleRow(a SweepRow, f float64) SweepRow {
	a.AdMessages *= f
	a.SubMessages *= f
	a.ReceivingRate *= f
	a.SuccessRate *= f
	a.LookupLatencyMS *= f
	a.DelayPenalty *= f
	a.LinkStress *= f
	a.NodeStress *= f
	a.OverloadIndex *= f
	return a
}

// groupOutcome is the measurement of one (overlay, scheme, group) cell —
// the unit of parallel work inside a sweep job.
type groupOutcome struct {
	adMsgs, subMsgs, recvRate, succRate  float64
	lookupLat                            float64
	hasLat                               bool
	delayPen, linkStr, nodeStr, overload float64
}

// runGroup builds one group (rendezvous choice, subscriptions, spanning
// tree) on the given overlay and evaluates it. The overlay graph, alive set,
// resource levels and pipeline environment are shared with concurrent group
// tasks and must only be read; all randomness comes from the task-private
// rng.
func (p *Pipeline) runGroup(g *overlay.Graph, alive []int, levels protocol.ResourceLevels,
	scheme protocol.Scheme, cfg SweepConfig, rng *rand.Rand) (groupOutcome, error) {
	var out groupOutcome
	acfg := protocol.DefaultAdvertiseConfig()
	acfg.Scheme = scheme
	scfg := protocol.DefaultSubscribeConfig()
	nSubs := int(cfg.SubscriberFraction * float64(p.Cfg.NumPeers))
	if nSubs < 2 {
		nSubs = 2
	}

	rendezvous := alive[rng.Intn(len(alive))]
	subs := make([]int, 0, nSubs)
	for _, idx := range rng.Perm(len(alive)) {
		if len(subs) >= nSubs {
			break
		}
		if alive[idx] != rendezvous {
			subs = append(subs, alive[idx])
		}
	}
	tree, adv, results, err := protocol.BuildGroup(g, rendezvous, subs, levels, acfg, scfg, rng, nil)
	if err != nil {
		return out, err
	}
	out.adMsgs = float64(adv.Messages)
	out.recvRate = float64(adv.NumReceived()) / float64(len(alive))
	ok := 0
	var lat float64
	var searched int
	for _, r := range results {
		out.subMsgs += float64(r.SearchMessages + r.JoinMessages)
		if r.OK {
			ok++
		}
		if r.UsedSearch && r.OK {
			lat += r.SearchLatency
			searched++
		}
	}
	out.succRate = float64(ok) / float64(len(subs))
	if searched > 0 {
		out.lookupLat = lat / float64(searched)
		out.hasLat = true
	}

	m, err := p.Env.Evaluate(tree, rendezvous)
	if err != nil {
		return out, err
	}
	out.delayPen = m.DelayPenalty
	out.linkStr = m.LinkStress
	out.nodeStr = m.NodeStress
	out.overload = m.OverloadIndex
	return out, nil
}

// reduceCell folds the per-group outcomes of one (overlay, scheme) cell into
// its sweep row. Accumulation walks groups in index order so the result does
// not depend on which worker finished first.
func reduceCell(n int, kind OverlayKind, scheme protocol.Scheme, outs []groupOutcome) SweepRow {
	row := SweepRow{N: n, Overlay: kind, Scheme: scheme}
	var lookupLat, latSamples float64
	for _, o := range outs {
		row.AdMessages += o.adMsgs
		row.SubMessages += o.subMsgs
		row.ReceivingRate += o.recvRate
		row.SuccessRate += o.succRate
		if o.hasLat {
			lookupLat += o.lookupLat
			latSamples++
		}
		row.DelayPenalty += o.delayPen
		row.LinkStress += o.linkStr
		row.NodeStress += o.nodeStr
		row.OverloadIndex += o.overload
	}
	fg := float64(len(outs))
	row.AdMessages /= fg
	row.SubMessages /= fg
	row.ReceivingRate /= fg
	row.SuccessRate /= fg
	if latSamples > 0 {
		row.LookupLatencyMS = lookupLat / latSamples
	}
	row.DelayPenalty /= fg
	row.LinkStress /= fg
	row.NodeStress /= fg
	row.OverloadIndex /= fg
	return row
}

// Figure11 writes the service lookup message counts (advertisement +
// subscription) for SSA and NSSA on both overlays.
func Figure11(w io.Writer, rows []SweepRow) {
	fmt.Fprintln(w, "# Figure 11: messages generated by service lookup schemes (mean per group)")
	fmt.Fprintf(w, "%-8s %-18s %-6s %-14s %-14s\n", "N", "overlay", "scheme", "ad msgs", "sub msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-18s %-6s %-14.0f %-14.0f\n",
			r.N, r.Overlay, r.Scheme, r.AdMessages, r.SubMessages)
	}
}

// Figure12 writes advertisement receiving rates and subscription success
// rates for the SSA scheme.
func Figure12(w io.Writer, rows []SweepRow) {
	fmt.Fprintln(w, "# Figure 12: receiving rate and subscription success rate (SSA, TTL=2 search)")
	fmt.Fprintf(w, "%-8s %-18s %-16s %-14s\n", "N", "overlay", "receiving rate", "success rate")
	for _, r := range rows {
		if r.Scheme != protocol.SSA {
			continue
		}
		fmt.Fprintf(w, "%-8d %-18s %-16.3f %-14.3f\n", r.N, r.Overlay, r.ReceivingRate, r.SuccessRate)
	}
}

// Figure13 writes the mean service lookup latency for the SSA scheme.
func Figure13(w io.Writer, rows []SweepRow) {
	fmt.Fprintln(w, "# Figure 13: service lookup latency (ms, SSA)")
	fmt.Fprintf(w, "%-8s %-18s %s\n", "N", "overlay", "lookup latency (ms)")
	for _, r := range rows {
		if r.Scheme != protocol.SSA {
			continue
		}
		fmt.Fprintf(w, "%-8d %-18s %.1f\n", r.N, r.Overlay, r.LookupLatencyMS)
	}
}

// Figure14 writes relative delay penalties for all four combinations.
func Figure14(w io.Writer, rows []SweepRow) {
	appFigure(w, rows, "Figure 14: relative delay penalty",
		func(r SweepRow) float64 { return r.DelayPenalty }, "%.2f")
}

// Figure15 writes link stress for all four combinations.
func Figure15(w io.Writer, rows []SweepRow) {
	appFigure(w, rows, "Figure 15: link stress",
		func(r SweepRow) float64 { return r.LinkStress }, "%.2f")
}

// Figure16 writes node stress for all four combinations.
func Figure16(w io.Writer, rows []SweepRow) {
	appFigure(w, rows, "Figure 16: node stress",
		func(r SweepRow) float64 { return r.NodeStress }, "%.2f")
}

// Figure17 writes the overload index for all four combinations.
func Figure17(w io.Writer, rows []SweepRow) {
	appFigure(w, rows, "Figure 17: overload index (log scale in the paper)",
		func(r SweepRow) float64 { return r.OverloadIndex }, "%.4f")
}

func appFigure(w io.Writer, rows []SweepRow, title string, get func(SweepRow) float64, valueFmt string) {
	fmt.Fprintln(w, "# "+title)
	fmt.Fprintf(w, "%-8s %-18s %-6s %s\n", "N", "overlay", "scheme", "value")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-18s %-6s "+valueFmt+"\n", r.N, r.Overlay, r.Scheme, get(r))
	}
}
