package experiments

import (
	"bytes"
	"fmt"
	"io"
)

// RunAll regenerates every table and figure of the paper — Table 1, the
// preference studies (Figures 1-6), the overlay-shape figures (7-10) and the
// full sweep (Figures 11-17) — fanning the independent sections across
// workers goroutines (0 = one per CPU). Each section renders into a private
// buffer and the buffers are written to w in the fixed section order, so the
// output is identical at any worker count.
func RunAll(w io.Writer, cfg SweepConfig, seed int64, workers int) error {
	cfg.Workers = workers
	sections := []func(io.Writer) error{
		func(buf io.Writer) error { Table1(buf); return nil },
		func(buf io.Writer) error { return FigurePreference(buf, 1, seed) },
		func(buf io.Writer) error { return FigurePreference(buf, 2, seed) },
		func(buf io.Writer) error { return FigurePreference(buf, 3, seed) },
		func(buf io.Writer) error { return FigurePreference(buf, 4, seed) },
		func(buf io.Writer) error { return FigurePreference(buf, 5, seed) },
		func(buf io.Writer) error { return FigurePreference(buf, 6, seed) },
		func(buf io.Writer) error { return Figure7(buf, seed) },
		func(buf io.Writer) error { return Figure8(buf, seed) },
		func(buf io.Writer) error { return Figure9(buf, seed) },
		func(buf io.Writer) error { return Figure10(buf, seed) },
		func(buf io.Writer) error {
			fmt.Fprintf(buf, "# running sweep: sizes=%v groups=%d frac=%.2f coordinates=%v\n",
				cfg.Sizes, cfg.GroupsPerOverlay, cfg.SubscriberFraction, cfg.UseCoordinates)
			rows, err := RunSweep(cfg)
			if err != nil {
				return err
			}
			for _, fig := range SweepFigures() {
				fig(buf, rows)
			}
			return nil
		},
		// The sections below keep their own workers at 1 because the
		// sections above already occupy the pool.
		func(buf io.Writer) error { return RunResilience(buf, seed, 1) },
		func(buf io.Writer) error { return RunGoodput(buf, seed, 1) },
		func(buf io.Writer) error { return RunTracePath(buf, seed, 1) },
		func(buf io.Writer) error { return RunSuccession(buf, seed, 1) },
		func(buf io.Writer) error { return RunOverload(buf, seed, 1) },
		func(buf io.Writer) error { return RunDiscovery(buf, seed, 1) },
		func(buf io.Writer) error { return RunTelemetry(buf, seed, 1) },
		func(buf io.Writer) error { return RunChurn(buf, seed, 1) },
	}
	bufs, err := mapOrdered(workers, len(sections), func(i int) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		if err := sections[i](&buf); err != nil {
			return nil, err
		}
		return &buf, nil
	})
	if err != nil {
		return err
	}
	for _, buf := range bufs {
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// SweepFigures returns the sweep-derived figure writers (Figures 11-17) in
// paper order.
func SweepFigures() []func(io.Writer, []SweepRow) {
	return []func(io.Writer, []SweepRow){
		Figure11, Figure12, Figure13, Figure14, Figure15, Figure16, Figure17,
	}
}
