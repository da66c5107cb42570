package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenSections are the deterministic sections of -exp all, each rendered
// at a fixed seed and at the smallest size that still exercises it
// (resilience, goodput and telemetry at their own sizes, 6 to 18 nodes;
// churn, an epoch model, at its full size, which takes under a second).
// The one live section, overload, is a wall-clock run and stays out.
var goldenSections = []struct {
	name   string
	render func(io.Writer) error
}{
	{"figs01-06", func(w io.Writer) error {
		Table1(w)
		for fig := 1; fig <= 6; fig++ {
			if err := FigurePreference(w, fig, 1); err != nil {
				return err
			}
		}
		return nil
	}},
	{"figs07-10", func(w io.Writer) error {
		for _, groupCast := range []bool{true, false} {
			if err := degreeFigureAt(w, 1, 250, groupCast, fmt.Sprintf("# degree, groupcast=%v", groupCast)); err != nil {
				return err
			}
		}
		for _, groupCast := range []bool{true, false} {
			if err := neighborFigureAt(w, 1, 250, groupCast, fmt.Sprintf("# neighbour distance, groupcast=%v", groupCast)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"figs11-17", func(w io.Writer) error {
		rows, err := RunSweep(SweepConfig{Sizes: []int{200, 400}, GroupsPerOverlay: 2,
			SubscriberFraction: 0.1, Seed: 1, Workers: 1})
		if err != nil {
			return err
		}
		for _, fig := range SweepFigures() {
			fig(w, rows)
		}
		return nil
	}},
	{"ablation-twolayer", func(w io.Writer) error { return AblationTwoLayer(w, 1, 1) }},
	{"ablation-backup", func(w io.Writer) error { return AblationBackupFailover(w, 1, 1) }},
	{"ablation-fraction", func(w io.Writer) error {
		rows, err := SSAParameterStudy(300, []float64{0.2, 0.4, 1.0}, []int{5, 7}, 3, 1, 1)
		return writeRows(w, rows, err)
	}},
	{"ablation-churn", func(w io.Writer) error { return AblationChurn(w, 1) }},
	{"tracepath", func(w io.Writer) error { return RunTracePathConfig(w, smallTracePathConfig(1)) }},
	{"succession", func(w io.Writer) error { return RunSuccessionConfig(w, smallSuccessionConfig(1)) }},
	{"resilience", func(w io.Writer) error { return RunResilience(w, 1, 1) }},
	{"goodput", func(w io.Writer) error { return RunGoodput(w, 1, 1) }},
	{"telemetry", func(w io.Writer) error { return RunTelemetry(w, 1, 1) }},
	{"churn", func(w io.Writer) error { return RunChurn(w, 1, 1) }},
	{"discovery", func(w io.Writer) error {
		rows, err := DiscoveryStudy([]int{128}, []float64{1.2}, []float64{0, 0.25}, 8, 32, 1, 1)
		return writeRows(w, rows, err)
	}},
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

// TestPaperFiguresGolden locks the paper's figures: every deterministic
// section renders byte for byte what testdata/<section>.golden holds. A diff
// here means a figure moved; if that was the intent, regenerate with
//
//	go test ./internal/experiments -run TestPaperFiguresGolden -update
//
// and say in the change which numbers moved and why. The sections render
// concurrently, each into its own buffer.
func TestPaperFiguresGolden(t *testing.T) {
	got, err := mapOrdered(0, len(goldenSections), func(i int) ([]byte, error) {
		var buf bytes.Buffer
		err := goldenSections[i].render(&buf)
		return buf.Bytes(), err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range goldenSections {
		path := filepath.Join("testdata", s.name+".golden")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got[i], 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("section %s moved from %s:\n--- got ---\n%s\n--- want ---\n%s", s.name, path, got[i], want)
		}
	}
}
