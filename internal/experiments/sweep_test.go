package experiments

import (
	"bytes"
	"strings"
	"testing"

	"groupcast/internal/protocol"
)

// smallSweep runs a fast sweep for tests.
func smallSweep(t *testing.T) []SweepRow {
	t.Helper()
	cfg := SweepConfig{
		Sizes:              []int{400, 800},
		GroupsPerOverlay:   3,
		SubscriberFraction: 0.1,
		Seed:               1,
		UseCoordinates:     false,
	}
	rows, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func findRow(rows []SweepRow, n int, kind OverlayKind, scheme protocol.Scheme) (SweepRow, bool) {
	for _, r := range rows {
		if r.N == n && r.Overlay == kind && r.Scheme == scheme {
			return r, true
		}
	}
	return SweepRow{}, false
}

func TestRunSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	rows := smallSweep(t)
	if len(rows) != 2*4 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, n := range []int{400, 800} {
		gcSSA, ok1 := findRow(rows, n, KindGroupCast, protocol.SSA)
		gcNSSA, ok2 := findRow(rows, n, KindGroupCast, protocol.NSSA)
		plSSA, ok3 := findRow(rows, n, KindPLOD, protocol.SSA)
		plNSSA, ok4 := findRow(rows, n, KindPLOD, protocol.NSSA)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			t.Fatal("missing sweep cells")
		}
		// Figure 11 shape: SSA generates fewer messages than NSSA on both
		// overlays.
		if gcSSA.AdMessages >= gcNSSA.AdMessages {
			t.Errorf("n=%d GroupCast: SSA ads %v >= NSSA %v", n, gcSSA.AdMessages, gcNSSA.AdMessages)
		}
		if plSSA.AdMessages >= plNSSA.AdMessages {
			t.Errorf("n=%d PLOD: SSA ads %v >= NSSA %v", n, plSSA.AdMessages, plNSSA.AdMessages)
		}
		// Figure 12 shape: high subscription success on GroupCast despite
		// partial receiving rate.
		if gcSSA.SuccessRate < 0.9 {
			t.Errorf("n=%d GroupCast SSA success rate %v", n, gcSSA.SuccessRate)
		}
		if gcSSA.ReceivingRate >= 1 {
			t.Errorf("n=%d SSA receiving rate %v should be < 1", n, gcSSA.ReceivingRate)
		}
		// Figure 14 shape: delay penalty >= 1 (IP multicast is optimal) and
		// smaller on GroupCast than on the random overlay.
		for _, r := range []SweepRow{gcSSA, gcNSSA, plSSA, plNSSA} {
			if r.DelayPenalty < 1 {
				t.Errorf("n=%d %s/%s delay penalty %v < 1", n, r.Overlay, r.Scheme, r.DelayPenalty)
			}
			if r.LinkStress < 1 {
				t.Errorf("n=%d %s/%s link stress %v < 1", n, r.Overlay, r.Scheme, r.LinkStress)
			}
			if r.NodeStress <= 0 {
				t.Errorf("n=%d %s/%s node stress %v", n, r.Overlay, r.Scheme, r.NodeStress)
			}
		}
		if gcSSA.DelayPenalty >= plNSSA.DelayPenalty {
			t.Errorf("n=%d GroupCast+SSA delay penalty %v not below random+NSSA %v",
				n, gcSSA.DelayPenalty, plNSSA.DelayPenalty)
		}
		// Figure 17 shape: overload index of GroupCast+SSA below random+NSSA.
		if gcSSA.OverloadIndex > plNSSA.OverloadIndex {
			t.Errorf("n=%d overload: GroupCast+SSA %v above random+NSSA %v",
				n, gcSSA.OverloadIndex, plNSSA.OverloadIndex)
		}
	}
}

func TestFigureWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	rows := smallSweep(t)
	writers := []struct {
		name string
		fn   func([]SweepRow) string
	}{
		{"fig11", func(r []SweepRow) string { var b bytes.Buffer; Figure11(&b, r); return b.String() }},
		{"fig12", func(r []SweepRow) string { var b bytes.Buffer; Figure12(&b, r); return b.String() }},
		{"fig13", func(r []SweepRow) string { var b bytes.Buffer; Figure13(&b, r); return b.String() }},
		{"fig14", func(r []SweepRow) string { var b bytes.Buffer; Figure14(&b, r); return b.String() }},
		{"fig15", func(r []SweepRow) string { var b bytes.Buffer; Figure15(&b, r); return b.String() }},
		{"fig16", func(r []SweepRow) string { var b bytes.Buffer; Figure16(&b, r); return b.String() }},
		{"fig17", func(r []SweepRow) string { var b bytes.Buffer; Figure17(&b, r); return b.String() }},
	}
	for _, wr := range writers {
		out := wr.fn(rows)
		if !strings.Contains(out, "400") || !strings.Contains(out, "GroupCast") {
			t.Errorf("%s output incomplete:\n%s", wr.name, out)
		}
	}
}

func TestPreferenceExperiment(t *testing.T) {
	pts, err := PreferenceExperiment(0.05, 1000, 2.0, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1000 {
		t.Fatalf("points = %d", len(pts))
	}
	var sum float64
	top := 0
	for _, p := range pts {
		sum += p.Preference
		if p.Top20 {
			top++
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("preferences sum to %v", sum)
	}
	// Top-20% flag must mark roughly (or at most) the top quintile; Zipf
	// ties can shrink the class but never grow it beyond ~35%.
	if top == 0 || top > 350 {
		t.Fatalf("top-20%% class has %d members", top)
	}
	if _, err := PreferenceExperiment(2, 0, 2, 400, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestFigurePreferenceWriters(t *testing.T) {
	for fig := 1; fig <= 6; fig++ {
		var b bytes.Buffer
		if err := FigurePreference(&b, fig, 1); err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
		if !strings.Contains(b.String(), "Figure") {
			t.Fatalf("fig %d output: %q", fig, b.String())
		}
	}
	var b bytes.Buffer
	if err := FigurePreference(&b, 7, 1); err == nil {
		t.Fatal("figure 7 accepted as preference figure")
	}
}

func TestTable1Writer(t *testing.T) {
	var b bytes.Buffer
	Table1(&b)
	for _, want := range []string{"20.0%", "10000", "0.1%"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("table 1 missing %q:\n%s", want, b.String())
		}
	}
}

func TestBuildPipelineValidation(t *testing.T) {
	if _, err := BuildPipeline(PipelineConfig{NumPeers: 0}); err == nil {
		t.Fatal("zero peers accepted")
	}
}

func TestBuildPipelineWithCoordinates(t *testing.T) {
	cfg := DefaultPipelineConfig(120, 3)
	p, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Points) != 120 {
		t.Fatalf("points = %d", len(p.Points))
	}
	// Coordinate distances must be finite, symmetric and zero on the
	// diagonal.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			d := p.Uni.Dist(i, j)
			if d < 0 || d != p.Uni.Dist(j, i) {
				t.Fatalf("bad coordinate distance (%d,%d) = %v", i, j, d)
			}
		}
	}
}

func TestDegreeAndNeighborFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("overlay builds are slow")
	}
	// Use the real entry points on reduced scale via direct building.
	p, err := BuildPipeline(PipelineConfig{NumPeers: 300, Seed: 4, UseCoordinates: false})
	if err != nil {
		t.Fatal(err)
	}
	g, _, _, err := p.GroupCastOverlay(4)
	if err != nil {
		t.Fatal(err)
	}
	dd := DegreeDistribution(g)
	if len(dd.Points) == 0 || dd.MaxDegree == 0 {
		t.Fatal("empty degree distribution")
	}
	nd := p.NeighborDistances(g)
	if nd.Summary.N == 0 || nd.Summary.Mean <= 0 {
		t.Fatalf("bad neighbour distances: %+v", nd.Summary)
	}
}

func TestDegreeAndNeighborFigureWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var b bytes.Buffer
	if err := degreeFigureAt(&b, 1, 250, true, "# test fig7"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "log-log slope") {
		t.Fatalf("fig7 output:\n%s", b.String())
	}
	b.Reset()
	if err := degreeFigureAt(&b, 1, 250, false, "# test fig8"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "degree") {
		t.Fatalf("fig8 output:\n%s", b.String())
	}
	b.Reset()
	if err := neighborFigureAt(&b, 1, 250, true, "# test fig9"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mean distance bin") {
		t.Fatalf("fig9 output:\n%s", b.String())
	}
	b.Reset()
	if err := neighborFigureAt(&b, 1, 250, false, "# test fig10"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# mean") {
		t.Fatalf("fig10 output:\n%s", b.String())
	}
}

func TestDefaultSweepConfig(t *testing.T) {
	cfg := DefaultSweepConfig()
	if len(cfg.Sizes) != 6 || cfg.Sizes[5] != 32000 {
		t.Fatalf("sizes = %v", cfg.Sizes)
	}
	if cfg.GroupsPerOverlay != 10 || cfg.SubscriberFraction != 0.1 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestRunSweepMultipleTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := SweepConfig{
		Sizes:              []int{300},
		GroupsPerOverlay:   2,
		SubscriberFraction: 0.1,
		Seed:               1,
		UseCoordinates:     false,
		Topologies:         3,
	}
	rows, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The averaged cells must still satisfy the basic shape constraints.
	gcSSA, _ := findRow(rows, 300, KindGroupCast, protocol.SSA)
	gcNSSA, _ := findRow(rows, 300, KindGroupCast, protocol.NSSA)
	if gcSSA.AdMessages >= gcNSSA.AdMessages {
		t.Fatalf("averaged SSA ads %v >= NSSA %v", gcSSA.AdMessages, gcNSSA.AdMessages)
	}
	if gcSSA.DelayPenalty < 1 {
		t.Fatalf("averaged delay penalty %v < 1", gcSSA.DelayPenalty)
	}
	// Averaging over three topologies must differ from any single one
	// (with overwhelming probability) — i.e. the loop actually ran.
	single, err := RunSweep(SweepConfig{
		Sizes: []int{300}, GroupsPerOverlay: 2, SubscriberFraction: 0.1,
		Seed: 1, UseCoordinates: false, Topologies: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := findRow(single, 300, KindGroupCast, protocol.SSA)
	if s0.AdMessages == gcSSA.AdMessages && s0.DelayPenalty == gcSSA.DelayPenalty {
		t.Fatal("multi-topology average identical to single topology")
	}
}
