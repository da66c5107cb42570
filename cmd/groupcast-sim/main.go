// Command groupcast-sim regenerates the tables and figures of the GroupCast
// paper (MIDDLEWARE 2007) from this repository's reimplementation.
//
// Usage:
//
//	groupcast-sim -exp table1
//	groupcast-sim -exp fig1 ... -exp fig10
//	groupcast-sim -exp fig11..fig17   (one sweep feeds all of them)
//	groupcast-sim -exp sweep          (figures 11-17 in one run)
//	groupcast-sim -exp ablations      (the three ablation-* sections)
//	groupcast-sim -exp all            (every section; -h lists them)
//	groupcast-sim -exp sweep -sizes 1000,2000,4000 -groups 10 -frac 0.1
//
// The sections are one table in internal/experiments; -exp dot (Graphviz
// of a small overlay and group tree) is the one name kept here.
//
// Large sweeps (the paper's 32000-peer points) take minutes; -sizes trims
// them. -exact replaces the GNP coordinate estimates with true underlay
// latencies (faster, slightly favourable to every scheme equally).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"

	"groupcast/internal/experiments"
	"groupcast/internal/protocol"
	"groupcast/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "groupcast-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("groupcast-sim", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment: "+strings.Join(experiments.SectionNames(), ", ")+", dot")
		seed    = fs.Int64("seed", 1, "random seed")
		sizes   = fs.String("sizes", "1000,2000,4000,8000,16000,32000", "sweep overlay sizes")
		groups  = fs.Int("groups", 10, "groups per overlay in the sweep")
		frac    = fs.Float64("frac", 0.1, "subscriber fraction per group")
		exact   = fs.Bool("exact", false, "use exact underlay latencies instead of GNP coordinates")
		topos   = fs.Int("topos", 1, "independent IP topologies to average each sweep cell over (paper: 10)")
		workers = fs.Int("workers", runtime.NumCPU(), "worker goroutines for the experiment pipeline (1 = serial; output is identical at any count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.DefaultSweepConfig()
	cfg.Seed = *seed
	cfg.GroupsPerOverlay = *groups
	cfg.SubscriberFraction = *frac
	cfg.UseCoordinates = !*exact
	cfg.Topologies = *topos
	cfg.Workers = *workers
	parsed, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	cfg.Sizes = parsed

	if *exp == "dot" {
		return writeDOT(w, *seed)
	}
	return experiments.Render(w, *exp, cfg)
}

// writeDOT emits Graphviz documents of a small overlay and one group tree
// (render with: groupcast-sim -exp dot | dot -Tsvg -O).
func writeDOT(w io.Writer, seed int64) error {
	cfg := experiments.DefaultPipelineConfig(100, seed)
	p, err := experiments.BuildPipeline(cfg)
	if err != nil {
		return err
	}
	g, levels, _, err := p.GroupCastOverlay(seed)
	if err != nil {
		return err
	}
	if err := viz.OverlayDOT(w, g, "groupcast-overlay"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	tree, _, _, err := protocol.BuildGroup(g, 0, rng.Perm(100)[:25], levels,
		protocol.DefaultAdvertiseConfig(), protocol.DefaultSubscribeConfig(), rng, nil)
	if err != nil {
		return err
	}
	return viz.TreeDOT(w, tree, "group-tree")
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 10 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
