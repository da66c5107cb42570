package experiments

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
)

// section is one section groupcast-sim reports: the -exp names that select
// it, its full-size render, and the small render TestPaperFiguresGolden
// locks in testdata/<golden>.golden. Sections that share a golden file hold
// their small renders there in table order.
type section struct {
	// names[0] selects the whole section; the sweep's fig11..fig17 each
	// select one of its figures.
	names []string
	// full renders the section at -seed cfg.Seed with cfg.Workers workers;
	// only the sweep reads the rest of cfg and name.
	full   func(w io.Writer, cfg SweepConfig, name string) error
	golden string
	small  func(w io.Writer) error
}

// runner is the shape of every section's full render but the sweep's.
type runner func(w io.Writer, seed int64, workers int) error

func (run runner) full(w io.Writer, cfg SweepConfig, _ string) error {
	return run(w, cfg.Seed, cfg.Workers)
}

// fast is a section whose small render is its full render at seed 1 on one
// worker.
func fast(name, golden string, run runner) section {
	return section{names: []string{name}, full: run.full, golden: golden,
		small: func(w io.Writer) error { return run(w, 1, 1) }}
}

// scaled is a section whose golden locks a smaller configuration.
func scaled(name, golden string, run runner, small func(io.Writer) error) section {
	return section{names: []string{name}, full: run.full, golden: golden, small: small}
}

// overlayFigure is one of Figures 7-10: draw at n peers under header at full
// size, and at 250 peers under short in the golden.
func overlayFigure(name string, draw func(io.Writer, int64, int, bool, string) error,
	n int, groupCast bool, header, short string) section {
	run := runner(func(w io.Writer, seed int64, _ int) error { return draw(w, seed, n, groupCast, header) })
	return scaled(name, "figs07-10", run, func(w io.Writer) error { return draw(w, 1, 250, groupCast, short) })
}

func preference(fig int) runner {
	return func(w io.Writer, seed int64, _ int) error { return FigurePreference(w, fig, seed) }
}

// sections is everything groupcast-sim reports, in -exp all order.
var sections = []section{
	fast("table1", "figs01-06", func(w io.Writer, _ int64, _ int) error { Table1(w); return nil }),
	fast("fig1", "figs01-06", preference(1)),
	fast("fig2", "figs01-06", preference(2)),
	fast("fig3", "figs01-06", preference(3)),
	fast("fig4", "figs01-06", preference(4)),
	fast("fig5", "figs01-06", preference(5)),
	fast("fig6", "figs01-06", preference(6)),
	overlayFigure("fig7", degreeFigureAt, 5000, true,
		"# Figure 7: log-log degree distribution, GroupCast overlay, 5000 peers", "# degree, groupcast=true"),
	overlayFigure("fig8", degreeFigureAt, 5000, false,
		"# Figure 8: log-log degree distribution, random power-law (PLOD α=1.8), 5000 peers", "# degree, groupcast=false"),
	overlayFigure("fig9", neighborFigureAt, 1000, true,
		"# Figure 9: average distance to overlay neighbours, GroupCast, 1000 peers", "# neighbour distance, groupcast=true"),
	overlayFigure("fig10", neighborFigureAt, 1000, false,
		"# Figure 10: average distance to overlay neighbours, random power-law, 1000 peers", "# neighbour distance, groupcast=false"),
	{
		names: []string{"sweep", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"},
		full:  sweepSection, golden: "figs11-17",
		small: func(w io.Writer) error {
			rows, err := RunSweep(SweepConfig{Sizes: []int{200, 400}, GroupsPerOverlay: 2,
				SubscriberFraction: 0.1, Seed: 1, Workers: 1})
			if err != nil {
				return err
			}
			for _, fig := range sweepFigures {
				fig(w, rows)
			}
			return nil
		},
	},
	fast("ablation-twolayer", "ablation-twolayer", AblationTwoLayer),
	scaled("ablation-fraction", "ablation-fraction", AblationFraction, func(w io.Writer) error {
		rows, err := SSAParameterStudy(300, []float64{0.2, 0.4, 1.0}, []int{5, 7}, 3, 1, 1)
		return writeRows(w, rows, err)
	}),
	fast("ablation-churn", "ablation-churn", func(w io.Writer, seed int64, _ int) error { return AblationChurn(w, seed) }),
	scaled("timed", "timed", func(w io.Writer, seed int64, workers int) error {
		return TimedBuildReport(w, 5000, seed, workers)
	}, func(w io.Writer) error { return TimedBuildReport(w, 300, 1, 1) }),
	fast("resilience", "resilience", RunResilience),
	fast("goodput", "goodput", RunGoodput),
	scaled("tracepath", "tracepath", RunTracePath, func(w io.Writer) error {
		return RunTracePathConfig(w, smallTracePathConfig(1))
	}),
	scaled("succession", "succession", RunSuccession, func(w io.Writer) error {
		return RunSuccessionConfig(w, smallSuccessionConfig(1))
	}),
	fast("overload", "overload", RunOverload),
	scaled("discovery", "discovery", RunDiscovery, func(w io.Writer) error {
		rows, err := DiscoveryStudy([]int{128}, []float64{1.2}, []float64{0, 0.25}, 8, 32, 1, 1)
		return writeRows(w, rows, err)
	}),
	fast("telemetry", "telemetry", RunTelemetry),
	fast("churn", "churn", RunChurn),
}

// sweepFigures are the sweep's figure writers, Figures 11-17 in order.
var sweepFigures = []func(io.Writer, []SweepRow){
	Figure11, Figure12, Figure13, Figure14, Figure15, Figure16, Figure17,
}

// sweepSection runs the sweep and writes every figure of it, or for a
// figN name the one figure.
func sweepSection(w io.Writer, cfg SweepConfig, name string) error {
	fmt.Fprintf(w, "# running sweep: sizes=%v groups=%d frac=%.2f coordinates=%v\n",
		cfg.Sizes, cfg.GroupsPerOverlay, cfg.SubscriberFraction, cfg.UseCoordinates)
	rows, err := RunSweep(cfg)
	if err != nil {
		return err
	}
	for i, fig := range sweepFigures {
		if name == "sweep" || name == fmt.Sprintf("fig%d", 11+i) {
			fig(w, rows)
		}
	}
	return nil
}

// SectionNames lists every name Render accepts: each section's names in
// table order, then "ablations" and "all".
func SectionNames() []string {
	var names []string
	for _, s := range sections {
		names = append(names, s.names...)
	}
	return append(names, "ablations", "all")
}

// Render writes the section name selects at full size. "all" renders every
// section and "ablations" the ablation-* ones, concurrently (see render);
// cfg carries the seed, the worker count and the sweep's parameters.
func Render(w io.Writer, name string, cfg SweepConfig) error {
	switch name {
	case "all":
		return render(w, sections, cfg, "\n")
	case "ablations":
		var ablations []section
		for _, s := range sections {
			if strings.HasPrefix(s.names[0], "ablation-") {
				ablations = append(ablations, s)
			}
		}
		return render(w, ablations, cfg, "")
	}
	for _, s := range sections {
		if slices.Contains(s.names, name) {
			return s.full(w, cfg, name)
		}
	}
	return fmt.Errorf("unknown experiment %q", name)
}

// render writes the full renders of secs to w in order, each followed by
// sep. Up to cfg.Workers sections run at once, each into a private buffer
// and each with cfg.Workers for its own cells, so the output is identical at
// any worker count.
func render(w io.Writer, secs []section, cfg SweepConfig, sep string) error {
	bufs, err := mapOrdered(cfg.Workers, len(secs), func(i int) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		err := secs[i].full(&buf, cfg, secs[i].names[0])
		buf.WriteString(sep)
		return &buf, err
	})
	if err != nil {
		return err
	}
	for _, buf := range bufs {
		if _, err := buf.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// writeRows prints one line per result row, every field by name and floats
// to six significant digits, so a golden line names the number that moved.
func writeRows[T any](w io.Writer, rows []T, err error) error {
	if err != nil {
		return err
	}
	for _, r := range rows {
		v := reflect.ValueOf(r)
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() == reflect.Float64 {
				fmt.Fprintf(w, "%s=%.6g ", v.Type().Field(i).Name, f.Float())
			} else {
				fmt.Fprintf(w, "%s=%v ", v.Type().Field(i).Name, f.Interface())
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
