package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"groupcast/internal/metrics"
	"groupcast/internal/overlay"
	"groupcast/internal/peer"
	"groupcast/internal/protocol"
	"groupcast/internal/sim"
)

// AblationTwoLayer compares the flat utility-aware overlay against the
// supernode two-layer architecture the paper sketches in Section 6, on
// lookup behaviour and the application metrics. The two overlay builds run
// concurrently (bounded by workers).
func AblationTwoLayer(w io.Writer, seed int64, workers int) error {
	const n = 2000
	p, err := BuildPipeline(DefaultPipelineConfig(n, seed))
	if err != nil {
		return err
	}
	var (
		flat, two  *overlay.Graph
		flatLevels protocol.ResourceLevels
	)
	if err := inParallel(workers,
		func() (err error) {
			flat, flatLevels, _, err = p.GroupCastOverlay(seed)
			return err
		},
		func() (err error) {
			two, err = overlay.BuildTwoLayer(p.Uni, overlay.DefaultTwoLayerConfig(), rand.New(rand.NewSource(seed)))
			return err
		},
	); err != nil {
		return err
	}
	twoLevels := protocol.ExactLevels(p.Uni)

	fmt.Fprintln(w, "# Ablation: flat GroupCast overlay vs two-layer supernode overlay (Section 6), 2000 peers")
	fmt.Fprintf(w, "%-12s %-10s %-10s %-12s %-12s %-12s %-10s\n",
		"overlay", "ad msgs", "success", "mean hops", "delay pen.", "link stress", "overload")
	for _, c := range []struct {
		name   string
		g      *overlay.Graph
		levels protocol.ResourceLevels
	}{
		{"flat", flat, flatLevels},
		{"two-layer", two, twoLevels},
	} {
		rng := rand.New(rand.NewSource(seed + 7))
		subs := rng.Perm(n)[:n/10]
		tree, adv, results, err := protocol.BuildGroup(c.g, 0, subs, c.levels,
			protocol.DefaultAdvertiseConfig(), protocol.DefaultSubscribeConfig(), rng, nil)
		if err != nil {
			return err
		}
		ok := 0
		for _, r := range results {
			if r.OK {
				ok++
			}
		}
		m, err := p.Env.Evaluate(tree, 0)
		if err != nil {
			return err
		}
		hops, _ := overlay.PathLengthStats(c.g, 10, rng)
		fmt.Fprintf(w, "%-12s %-10d %-10.3f %-12.2f %-12.2f %-12.2f %-10.4f\n",
			c.name, adv.Messages, float64(ok)/float64(len(subs)), hops,
			m.DelayPenalty, m.LinkStress, m.OverloadIndex)
	}
	return nil
}

// AblationChurn drives the overlay through an event-driven churn storm with
// the adaptive epoch controller and reports connectivity and repair effort
// over simulated time.
func AblationChurn(w io.Writer, seed int64) error {
	const (
		population   = 800
		meanLifetime = 90_000
		horizon      = 240_000
	)
	rng := rand.New(rand.NewSource(seed))
	caps := peer.MustTable1Sampler().SampleN(population, rng)
	xs := peer.UniformDistances(population, 0, 300, rng)
	ys := peer.UniformDistances(population, 0, 300, rng)
	uni := &overlay.Universe{
		Caps: caps,
		Dist: func(i, j int) float64 {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			// Manhattan keeps it cheap; only ordering matters here.
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			return dx + dy
		},
	}
	b, err := overlay.NewBuilder(uni, overlay.DefaultBootstrapConfig(), rng, metrics.NewCounters())
	if err != nil {
		return err
	}
	g := b.Graph()
	engine := sim.New()
	arrivals := peer.NewArrivalProcess(300, rng)
	churn := peer.NewChurnProcess(meanLifetime, 0.5, rng)
	ctl := overlay.NewEpochController(5000, 1000, 30000, 4)

	if _, err := arrivals.ScheduleJoins(engine, population, func(i int) {
		if err := b.Join(i); err != nil {
			return
		}
		ev := churn.NextDeparture(engine.Now())
		if ev.At > horizon {
			return
		}
		if _, err := engine.At(ev.At, func(*sim.Engine, sim.Time) {
			if !g.Alive(i) {
				return
			}
			if ev.Graceful {
				b.Leave(i)
			} else {
				b.Fail(i)
			}
		}); err != nil {
			return
		}
	}); err != nil {
		return err
	}

	fmt.Fprintln(w, "# Ablation: overlay under churn with adaptive epochs (800 joins, Expo lifetimes, 50% crashes)")
	fmt.Fprintf(w, "%-10s %-8s %-10s %-10s %-12s\n", "t (s)", "alive", "connected", "repairs", "epoch (ms)")
	var schedule func(at sim.Time)
	schedule = func(at sim.Time) {
		if at > horizon {
			return
		}
		if _, err := engine.At(at, func(_ *sim.Engine, now sim.Time) {
			repairs := b.RunEpoch(overlay.DefaultMaintenanceConfig(), rng)
			next := ctl.Observe(repairs)
			fmt.Fprintf(w, "%-10.0f %-8d %-10v %-10d %-12.0f\n",
				float64(now)/1000, g.NumAlive(), overlay.IsConnected(g), repairs, next)
			schedule(now + sim.Time(next))
		}); err != nil {
			return
		}
	}
	schedule(sim.Time(ctl.Duration()))
	engine.RunUntil(horizon)
	return nil
}
