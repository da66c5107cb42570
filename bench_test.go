// Benchmarks regenerating (at reduced, laptop-friendly scale) the workload
// behind every table and figure of the GroupCast paper, plus ablations of
// the substrate layers. The full-scale figure data comes from
// cmd/groupcast-sim; these benchmarks measure the cost of each pipeline
// stage and report the headline counters as custom metrics.
package groupcast_test

import (
	"math/rand"
	"testing"

	"groupcast/internal/coords"
	"groupcast/internal/core"
	"groupcast/internal/experiments"
	"groupcast/internal/netsim"
	"groupcast/internal/overlay"
	"groupcast/internal/peer"
	"groupcast/internal/protocol"
	"groupcast/internal/sim"
)

const benchN = 1000 // overlay population for figure benchmarks

// benchPipeline is shared by the figure benchmarks; building it once keeps
// per-benchmark setup cheap. Exact latencies (no GNP) keep the focus on the
// protocol stage under measurement.
func benchPipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	cfg := experiments.DefaultPipelineConfig(benchN, 1)
	cfg.UseCoordinates = false
	p, err := experiments.BuildPipeline(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchGroupCast(b *testing.B, p *experiments.Pipeline) (*overlay.Graph, protocol.ResourceLevels) {
	b.Helper()
	g, levels, _, err := p.GroupCastOverlay(1)
	if err != nil {
		b.Fatal(err)
	}
	return g, levels
}

// BenchmarkTable1Sampling measures the capacity sampler behind Table 1.
func BenchmarkTable1Sampling(b *testing.B) {
	s := peer.MustTable1Sampler()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(rng)
	}
}

// BenchmarkFig1to6Preference measures the Figures 1-6 workload: the full
// Selection Preference vector over a 1000-candidate list.
func BenchmarkFig1to6Preference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	caps := peer.ZipfCapacities(1000, 2.0, 1000, rng)
	dists := peer.UniformDistances(1000, 0, 400, rng)
	cands := make([]core.Candidate, 1000)
	for i := range cands {
		cands[i] = core.Candidate{Capacity: float64(caps[i]), Distance: dists[i]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectionPreferencesFor(0.5, cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7GroupCastOverlay measures utility-aware overlay construction
// (the Figure 7 workload) for 1000 peers.
func BenchmarkFig7GroupCastOverlay(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, _, err := p.GroupCastOverlay(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(g.NumEdges()), "edges")
		}
	}
}

// BenchmarkFig8PLODOverlay measures the centralized PLOD baseline generator
// (the Figure 8 workload).
func BenchmarkFig8PLODOverlay(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.PLODOverlay(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9NeighborDistances measures the Figures 9/10 metric: per-peer
// mean underlay distance to overlay neighbours.
func BenchmarkFig9NeighborDistances(b *testing.B) {
	p := benchPipeline(b)
	g, _ := benchGroupCast(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := p.NeighborDistances(g)
		if res.Summary.N == 0 {
			b.Fatal("no distances")
		}
	}
}

// BenchmarkFig11AdvertiseSSA measures one SSA announcement round (the
// Figure 11 workload) and reports messages per round.
func BenchmarkFig11AdvertiseSSA(b *testing.B) {
	p := benchPipeline(b)
	g, levels := benchGroupCast(b, p)
	rng := rand.New(rand.NewSource(2))
	cfg := protocol.DefaultAdvertiseConfig()
	var msgs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := protocol.Advertise(g, 0, levels, cfg, rng, nil)
		if err != nil {
			b.Fatal(err)
		}
		msgs = float64(adv.Messages)
	}
	b.ReportMetric(msgs, "msgs/round")
}

// BenchmarkFig11AdvertiseNSSA is the flooding baseline of Figure 11.
func BenchmarkFig11AdvertiseNSSA(b *testing.B) {
	p := benchPipeline(b)
	g, _ := benchGroupCast(b, p)
	rng := rand.New(rand.NewSource(2))
	cfg := protocol.AdvertiseConfig{Scheme: protocol.NSSA, TTL: 7}
	var msgs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := protocol.Advertise(g, 0, nil, cfg, rng, nil)
		if err != nil {
			b.Fatal(err)
		}
		msgs = float64(adv.Messages)
	}
	b.ReportMetric(msgs, "msgs/round")
}

// BenchmarkFig12Subscription measures building a complete group (the
// Figures 12/13 workload: advertisement + 100 subscriptions with TTL-2
// search fallback) and reports the success rate.
func BenchmarkFig12Subscription(b *testing.B) {
	p := benchPipeline(b)
	g, levels := benchGroupCast(b, p)
	rng := rand.New(rand.NewSource(3))
	subs := rng.Perm(benchN)[:100]
	var success float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, results, err := protocol.BuildGroup(g, 0, subs, levels,
			protocol.DefaultAdvertiseConfig(), protocol.DefaultSubscribeConfig(), rng, nil)
		if err != nil {
			b.Fatal(err)
		}
		ok := 0
		for _, r := range results {
			if r.OK {
				ok++
			}
		}
		success = float64(ok) / float64(len(results))
	}
	b.ReportMetric(success, "success-rate")
}

// BenchmarkFig13RippleSearch measures the TTL-2 service lookup search of
// Figure 13 in isolation.
func BenchmarkFig13RippleSearch(b *testing.B) {
	p := benchPipeline(b)
	g, levels := benchGroupCast(b, p)
	rng := rand.New(rand.NewSource(4))
	adv, err := protocol.Advertise(g, 0, levels, protocol.DefaultAdvertiseConfig(), rng, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Collect peers that missed the advertisement.
	var misses []int
	for _, peerID := range g.AlivePeers() {
		if !adv.Received(peerID) {
			misses = append(misses, peerID)
		}
	}
	if len(misses) == 0 {
		b.Skip("advertisement reached everyone")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin := misses[i%len(misses)]
		overlay.RippleSearch(g, origin, 2, adv.Received)
	}
}

// BenchmarkFig14to17Evaluate measures the ESM metric computation behind
// Figures 14-17 (delay penalty, link stress, node stress, overload) for one
// 100-member tree, and reports the metrics themselves.
func BenchmarkFig14to17Evaluate(b *testing.B) {
	p := benchPipeline(b)
	g, levels := benchGroupCast(b, p)
	rng := rand.New(rand.NewSource(5))
	subs := rng.Perm(benchN)[:100]
	tree, _, _, err := protocol.BuildGroup(g, 0, subs, levels,
		protocol.DefaultAdvertiseConfig(), protocol.DefaultSubscribeConfig(), rng, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var delayPen, linkStress float64
	for i := 0; i < b.N; i++ {
		m, err := p.Env.Evaluate(tree, 0)
		if err != nil {
			b.Fatal(err)
		}
		delayPen, linkStress = m.DelayPenalty, m.LinkStress
	}
	b.ReportMetric(delayPen, "delay-penalty")
	b.ReportMetric(linkStress, "link-stress")
}

// --- Substrate ablations -------------------------------------------------

// BenchmarkAblationUnderlayGenerate measures transit-stub generation with
// all-pairs routing (the GT-ITM substitute).
func BenchmarkAblationUnderlayGenerate(b *testing.B) {
	cfg := netsim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := netsim.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGNPEmbedding measures the GNP coordinate substrate for
// 1000 peers.
func BenchmarkAblationGNPEmbedding(b *testing.B) {
	cfg := netsim.DefaultConfig()
	nw, err := netsim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	att, err := netsim.Attach(nw, benchN, netsim.AccessLatencyRange, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	dist := func(i, j int) float64 { return att.Distance(netsim.PeerID(i), netsim.PeerID(j)) }
	gcfg := coords.DefaultGNPConfig()
	gcfg.Iterations = 400
	gcfg.LearningRate = 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gcfg.Seed = int64(i + 1)
		if _, err := coords.EmbedGNP(benchN, dist, gcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUtilityVsRandomForwarding compares utility-aware SSA
// against the basic framework's random subset forwarding — the design
// choice Section 3.2 motivates.
func BenchmarkAblationUtilityVsRandomForwarding(b *testing.B) {
	p := benchPipeline(b)
	g, levels := benchGroupCast(b, p)
	for _, scheme := range []protocol.Scheme{protocol.SSA, protocol.SSARandom} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			cfg := protocol.DefaultAdvertiseConfig()
			cfg.Scheme = scheme
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := protocol.Advertise(g, 0, levels, cfg, rng, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEventEngine measures the discrete event core (p-sim
// substitute): schedule + fire one event.
func BenchmarkAblationEventEngine(b *testing.B) {
	e := sim.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.After(1, func(*sim.Engine, sim.Time) {}); err != nil {
			b.Fatal(err)
		}
		e.Step()
	}
}

// BenchmarkAblationHostCacheBootstrap measures one host cache query with the
// bounded-sample optimisation.
func BenchmarkAblationHostCacheBootstrap(b *testing.B) {
	p := benchPipeline(b)
	hc := overlay.NewHostCache(p.Uni)
	for i := 1; i < benchN; i++ {
		hc.Register(i)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := hc.Bootstrap(0, 4, rng); len(got) == 0 {
			b.Fatal("empty bootstrap")
		}
	}
}

// --- Parallel experiment pipeline ----------------------------------------

// benchSweepConfig is a reduced sweep whose cells are numerous enough (2
// sizes x 2 topologies x 4 combos x 4 groups) to exercise both fan-out
// levels of the worker pool.
func benchSweepConfig(workers int) experiments.SweepConfig {
	return experiments.SweepConfig{
		Sizes:              []int{400, 600},
		GroupsPerOverlay:   4,
		SubscriberFraction: 0.1,
		Seed:               1,
		UseCoordinates:     false,
		Topologies:         2,
		Workers:            workers,
	}
}

// BenchmarkSweepSerial is the workers=1 reference execution of the sweep.
func BenchmarkSweepSerial(b *testing.B) {
	cfg := benchSweepConfig(1)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the identical sweep with one worker per CPU;
// the ratio to BenchmarkSweepSerial is the pipeline's parallel speedup
// (meaningful only on multi-core hosts — on one CPU the two coincide).
func BenchmarkSweepParallel(b *testing.B) {
	cfg := benchSweepConfig(0) // DefaultWorkers: GOMAXPROCS
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
