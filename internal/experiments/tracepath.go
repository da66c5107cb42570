package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"groupcast/internal/metrics"
	"groupcast/internal/overlay"
	"groupcast/internal/protocol"
)

// TracePathConfig parameterizes the per-hop latency-breakdown experiment
// (-exp tracepath): it publishes one payload per group over SSA- and
// NSSA-built trees and decomposes every relay hop into three modelled cost
// components: queue, handle and wire. The live node's tracer records queue,
// handle and send; its queue time folds in the wire, which a node cannot
// separate.
type TracePathConfig struct {
	// NumPeers is the overlay population.
	NumPeers int
	// Groups is how many independent groups are built and published per
	// scheme.
	Groups int
	// SubscriberFraction of the population subscribes to each group.
	SubscriberFraction float64
	// Seed drives every random stream (each (scheme, group) cell derives its
	// own from it).
	Seed int64
	// Workers bounds the fan-out; 0 means DefaultWorkers(), 1 runs serial.
	// Output is byte-identical at any worker count.
	Workers int
}

// DefaultTracePathConfig is the configuration -exp tracepath runs.
func DefaultTracePathConfig(seed int64, workers int) TracePathConfig {
	return TracePathConfig{
		NumPeers:           600,
		Groups:             8,
		SubscriberFraction: 0.15,
		Seed:               seed,
		Workers:            workers,
	}
}

// smallTracePathConfig is the tracepath run the golden and the tests lock:
// small, but still exercising both schemes, multi-group fan-out and the
// histogram aggregation.
func smallTracePathConfig(workers int) TracePathConfig {
	cfg := DefaultTracePathConfig(7, workers)
	cfg.NumPeers, cfg.Groups, cfg.SubscriberFraction = 200, 4, 0.2
	return cfg
}

// Cost model for one relay hop, named after the live tracer's queue and
// handle fields (internal/trace): queue is the serialization delay a copy
// waits behind its siblings at the forwarding node (the k-th outgoing copy
// of a payload waits k serializations of tracePayloadBits at capacity x
// 64 kbps), handle is the per-message CPU cost of the forwarding node
// (traceHandleCost / capacity ms), and wire is the underlay link latency.
const (
	tracePayloadBits  = 8192 // 1 KiB payload
	capacityUnitKbps  = 64   // one capacity unit = one 64 kbps connection
	traceHandleCostMs = 10.0 // handle cost of a capacity-1 peer, in ms
)

// serializeMs is the time one payload copy occupies the uplink of a node
// with the given capacity.
func serializeMs(cap float64) float64 {
	return float64(tracePayloadBits) / (cap * capacityUnitKbps)
}

// handleMs is the CPU cost of forwarding one payload at the given capacity.
func handleMs(cap float64) float64 {
	return traceHandleCostMs / cap
}

// tracePathHop is one relay hop of a simulated publish, decomposed into the
// tracer's cost components.
type tracePathHop struct {
	depth                     int
	queueMs, handleMs, wireMs float64
}

func (h tracePathHop) totalMs() float64 { return h.queueMs + h.handleMs + h.wireMs }

// tracePathMember is one member delivery: its tree depth and the cumulative
// latency of its path from the source.
type tracePathMember struct {
	depth   int
	totalMs float64
}

// tracePathOutcome is the measurement of one (scheme, group) cell.
type tracePathOutcome struct {
	hops    []tracePathHop
	members []tracePathMember
}

// RunTracePath runs the tracepath experiment: for each scheme it builds
// cfg-many groups on one GroupCast overlay, publishes one payload from each
// rendezvous, and prints (1) per-component hop-latency distributions with
// histogram quantiles and (2) cumulative delivery latency by tree depth.
//
// Cells fan out over workers goroutines, but every random stream derives
// from the cell identity alone and aggregation walks cells in index order
// (histogram feeding included), so the output is byte-identical at any
// worker count.
func RunTracePath(w io.Writer, seed int64, workers int) error {
	return RunTracePathConfig(w, DefaultTracePathConfig(seed, workers))
}

// RunTracePathConfig is RunTracePath with an explicit configuration.
func RunTracePathConfig(w io.Writer, cfg TracePathConfig) error {
	pcfg := DefaultPipelineConfig(cfg.NumPeers, cfg.Seed)
	pcfg.UseCoordinates = false // exact underlay latencies: faster and noise-free
	p, err := BuildPipeline(pcfg)
	if err != nil {
		return err
	}
	g, levels, _, err := p.GroupCastOverlay(cfg.Seed)
	if err != nil {
		return err
	}
	alive := g.AlivePeers()
	schemes := []protocol.Scheme{protocol.SSA, protocol.NSSA}

	groups := cfg.Groups
	if groups < 1 {
		groups = 1
	}
	// One task per (scheme, group) cell: task index si*groups + gi. The
	// overlay graph, levels and alive set are shared read-only.
	outs, err := mapOrdered(cfg.Workers, len(schemes)*groups, func(t int) (tracePathOutcome, error) {
		si, gi := t/groups, t%groups
		rng := rand.New(rand.NewSource(cellSeed(cfg.Seed, int64(si), int64(gi))))
		return p.tracePublish(g, alive, levels, schemes[si], cfg, rng)
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# tracepath: per-hop latency breakdown of one publish per group (rendezvous source)")
	fmt.Fprintf(w, "# N=%d groups=%d frac=%.2f seed=%d exact-latencies\n",
		cfg.NumPeers, groups, cfg.SubscriberFraction, cfg.Seed)
	fmt.Fprintf(w, "# cost model: wire = underlay link latency; handle = %.0f/capacity ms CPU;\n", traceHandleCostMs)
	fmt.Fprintf(w, "#             queue = copy index x serialization of %d bits at capacity x %d kbps\n",
		tracePayloadBits, capacityUnitKbps)
	fmt.Fprintf(w, "%-6s %-8s %-8s %-10s %-10s %-10s %-10s\n",
		"scheme", "part", "hops", "mean ms", "p50 ms", "p90 ms", "p99 ms")
	for si, scheme := range schemes {
		cells := outs[si*groups : (si+1)*groups]
		// Histograms are fed serially, in cell then hop order, from the
		// mapOrdered results: bucket counts and the float sum are then pure
		// functions of the cell identities, independent of worker count.
		parts := []struct {
			name string
			get  func(tracePathHop) float64
			h    *metrics.FixedHistogram
		}{
			{"queue", func(h tracePathHop) float64 { return h.queueMs }, metrics.NewFixedHistogram(metrics.DefaultLatencyBuckets())},
			{"handle", func(h tracePathHop) float64 { return h.handleMs }, metrics.NewFixedHistogram(metrics.DefaultLatencyBuckets())},
			{"wire", func(h tracePathHop) float64 { return h.wireMs }, metrics.NewFixedHistogram(metrics.DefaultLatencyBuckets())},
			{"total", tracePathHop.totalMs, metrics.NewFixedHistogram(metrics.DefaultLatencyBuckets())},
		}
		for _, cell := range cells {
			for _, hop := range cell.hops {
				for _, part := range parts {
					part.h.Observe(part.get(hop))
				}
			}
		}
		for _, part := range parts {
			s := part.h.Snapshot()
			fmt.Fprintf(w, "%-6s %-8s %-8d %-10.3f %-10.3f %-10.3f %-10.3f\n",
				scheme, part.name, s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99))
		}
	}

	fmt.Fprintln(w, "# tracepath: cumulative delivery latency by tree depth (members only)")
	fmt.Fprintf(w, "%-6s %-6s %-9s %s\n", "scheme", "depth", "members", "mean total ms")
	for si, scheme := range schemes {
		cells := outs[si*groups : (si+1)*groups]
		var sums []float64
		var counts []int
		for _, cell := range cells {
			for _, m := range cell.members {
				for len(sums) <= m.depth {
					sums = append(sums, 0)
					counts = append(counts, 0)
				}
				sums[m.depth] += m.totalMs
				counts[m.depth]++
			}
		}
		for depth := 1; depth < len(sums); depth++ {
			if counts[depth] == 0 {
				continue
			}
			fmt.Fprintf(w, "%-6s %-6d %-9d %.3f\n",
				scheme, depth, counts[depth], sums[depth]/float64(counts[depth]))
		}
	}
	return nil
}

// tracePublish builds one group on the overlay with the given scheme and
// simulates a single publish from its rendezvous, decomposing every relay
// hop into queue/handle/wire costs. The flood order matches the live node:
// each node forwards to every tree neighbour except the arrival link, and
// the k-th copy queues behind the k-1 before it on the sender's uplink.
func (p *Pipeline) tracePublish(g *overlay.Graph, alive []int, levels protocol.ResourceLevels,
	scheme protocol.Scheme, cfg TracePathConfig, rng *rand.Rand) (tracePathOutcome, error) {
	var out tracePathOutcome
	acfg := protocol.DefaultAdvertiseConfig()
	acfg.Scheme = scheme
	scfg := protocol.DefaultSubscribeConfig()
	nSubs := int(cfg.SubscriberFraction * float64(cfg.NumPeers))
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
	tree, _, _, err := protocol.BuildGroup(g, rendezvous, subs, levels, acfg, scfg, rng, nil)
	if err != nil {
		return out, err
	}

	uni := g.Universe()
	type hop struct {
		node, from, depth int
		totalMs           float64
	}
	queue := []hop{{node: rendezvous, from: -1}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		cap := float64(uni.Caps[h.node])
		k := 0
		for _, nb := range treeLinks(tree, h.node) {
			if nb == h.from {
				continue
			}
			th := tracePathHop{
				depth:    h.depth + 1,
				queueMs:  float64(k) * serializeMs(cap),
				handleMs: handleMs(cap),
				wireMs:   uni.Dist(h.node, nb),
			}
			k++
			out.hops = append(out.hops, th)
			total := h.totalMs + th.totalMs()
			if tree.Members[nb] {
				out.members = append(out.members, tracePathMember{depth: th.depth, totalMs: total})
			}
			queue = append(queue, hop{node: nb, from: h.node, depth: th.depth, totalMs: total})
		}
	}
	return out, nil
}

// treeLinks lists a node's tree-adjacent nodes (parent first, then children,
// in the tree's deterministic construction order).
func treeLinks(t *protocol.Tree, node int) []int {
	kids := t.Children[node]
	out := make([]int, 0, len(kids)+1)
	if node != t.Rendezvous {
		out = append(out, t.Parent[node])
	}
	return append(out, kids...)
}
