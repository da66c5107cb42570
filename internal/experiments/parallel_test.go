package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderedReturnsResultsInOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		out, err := mapOrdered(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: len = %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapOrderedEmpty(t *testing.T) {
	out, err := mapOrdered(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapOrderedReturnsLowestIndexedError(t *testing.T) {
	// Every odd job fails; the reported error must be job 1's regardless of
	// scheduling, on both the serial and parallel paths.
	for _, workers := range []int{1, 8} {
		_, err := mapOrdered(workers, 20, func(i int) (int, error) {
			if i%2 == 1 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 1 failed" {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestMapOrderedStopsDispatchAfterError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := mapOrdered(4, 10_000, func(i int) (int, error) {
		ran.Add(1)
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The dispatcher must stop feeding jobs once a worker fails; with 4
	// workers only a handful of in-flight jobs may still run.
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d jobs ran after the first error", n)
	}
}

func TestInParallel(t *testing.T) {
	var a, b atomic.Bool
	if err := inParallel(2,
		func() error { a.Store(true); return nil },
		func() error { b.Store(true); return nil },
	); err != nil {
		t.Fatal(err)
	}
	if !a.Load() || !b.Load() {
		t.Fatal("thunks did not run")
	}
	boom := errors.New("boom")
	if err := inParallel(2, func() error { return nil }, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCellSeedDistinctAcrossGrid(t *testing.T) {
	seen := make(map[int64][4]int64)
	for _, seed := range []int64{0, 1, 7} {
		for n := int64(0); n < 8; n++ {
			for ti := int64(0); ti < 8; ti++ {
				for gi := int64(0); gi < 8; gi++ {
					s := cellSeed(seed, n, ti, gi)
					if prev, dup := seen[s]; dup {
						t.Fatalf("cellSeed collision: (%d,%d,%d,%d) and %v -> %d",
							seed, n, ti, gi, prev, s)
					}
					seen[s] = [4]int64{seed, n, ti, gi}
				}
			}
		}
	}
	// Argument order must matter.
	if cellSeed(1, 2, 3) == cellSeed(3, 2, 1) {
		t.Fatal("cellSeed ignores argument order")
	}
}

// renderSweep runs the sweep under cfg and renders every sweep figure, the
// byte-level artifact the determinism guarantee covers.
func renderSweep(t *testing.T, cfg SweepConfig) []byte {
	t.Helper()
	rows, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, fig := range sweepFigures {
		fig(&buf, rows)
	}
	return buf.Bytes()
}

// TestSweepParallelMatchesSerial is the tentpole regression test: the fully
// serial sweep (Workers=1) and a heavily parallel one must render
// byte-identical figures, including with multi-topology averaging.
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	cfg := SweepConfig{
		Sizes:              []int{300, 400},
		GroupsPerOverlay:   3,
		SubscriberFraction: 0.1,
		Seed:               11,
		UseCoordinates:     false,
		Topologies:         2,
	}
	cfg.Workers = 1
	serial := renderSweep(t, cfg)
	cfg.Workers = 8
	parallel := renderSweep(t, cfg)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel sweep diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	// And the serial run must reproduce itself (no hidden global state).
	cfg.Workers = 1
	if again := renderSweep(t, cfg); !bytes.Equal(serial, again) {
		t.Fatal("serial sweep not reproducible across runs")
	}
}

// TestParameterStudyParallelMatchesSerial covers the second fan-out path:
// the SSA fraction/TTL grid over a shared read-only overlay.
func TestParameterStudyParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	run := func(workers int) []FractionRow {
		rows, err := SSAParameterStudy(400, []float64{0.3, 0.7}, []int{4, 6}, 2, 9, workers)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial, parallel := run(1), run(8)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
}

// TestRenderTogetherMatchesAlone checks the shared fan-out behind -exp all
// and -exp ablations: sections rendered together, concurrently, print
// exactly what each prints alone on one worker, concatenated.
func TestRenderTogetherMatchesAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	var alone bytes.Buffer
	for _, s := range sections {
		if !strings.HasPrefix(s.names[0], "ablation-") {
			continue
		}
		if err := Render(&alone, s.names[0], SweepConfig{Seed: 1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var together bytes.Buffer
	if err := Render(&together, "ablations", SweepConfig{Seed: 1, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(alone.Bytes(), together.Bytes()) {
		t.Fatalf("sections rendered together differ from each alone:\n--- alone ---\n%s\n--- together ---\n%s",
			alone.String(), together.String())
	}
}
