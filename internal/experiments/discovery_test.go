package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestDiscoveryStudyScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := DiscoveryStudy([]int{256, 1024}, []float64{1.2}, []float64{0}, 24, 80, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// No churn: every DHT lookup must find the replicated record, in
		// logarithmically few messages; the flood must cost far more.
		if r.DhtHit < 0.99 {
			t.Errorf("n=%d dht hit rate %v, want >= 0.99", r.N, r.DhtHit)
		}
		if r.DhtMsgs >= r.RippleMsgs {
			t.Errorf("n=%d dht msgs %v not below ripple msgs %v", r.N, r.DhtMsgs, r.RippleMsgs)
		}
		maxMsgs := 2 * 3 * 1.5 * math.Log2(float64(r.N)) // 2 per query, alpha per wave
		if r.DhtMsgs > maxMsgs {
			t.Errorf("n=%d dht msgs %v above the O(log N) budget %v", r.N, r.DhtMsgs, maxMsgs)
		}
	}
	// Ripple cost grows with the population far faster than the DHT's.
	ripGrowth := rows[1].RippleMsgs / rows[0].RippleMsgs
	dhtGrowth := rows[1].DhtMsgs / rows[0].DhtMsgs
	if ripGrowth < 2 || dhtGrowth > 1.5 {
		t.Errorf("growth 256→1024: ripple %.2fx dht %.2fx, want ripple ≫ dht", ripGrowth, dhtGrowth)
	}
}

func TestDiscoveryStudyDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	a, err := DiscoveryStudy([]int{256}, []float64{1.2, 2.0}, []float64{0, 0.25}, 16, 48, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DiscoveryStudy([]int{256}, []float64{1.2, 2.0}, []float64{0, 0.25}, 16, 48, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across worker counts:\n 1: %+v\n 8: %+v", i, a[i], b[i])
		}
	}
}

// TestRunDiscoveryWriter checks RunDiscovery's columns on a small study;
// the full-size table is locked byte for byte in results_full.txt
// (TestPaperFiguresGolden -full).
func TestRunDiscoveryWriter(t *testing.T) {
	rows, err := DiscoveryStudy([]int{128}, []float64{1.2}, []float64{0, 0.25}, 8, 32, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeDiscovery(&buf, rows)
	out := buf.String()
	for _, col := range []string{"dht-msgs", "rip-msgs", "dht-hit", "churn", "hold-load"} {
		if !strings.Contains(out, col) {
			t.Fatalf("output lacks %q column:\n%s", col, out)
		}
	}
}

func TestDiscoveryStudyChurnAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := DiscoveryStudy([]int{512}, []float64{1.2}, []float64{0, 0.25}, 24, 96, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	calm, churned := rows[0], rows[1]
	if calm.Churn != 0 || churned.Churn != 0.25 {
		t.Fatalf("churn axis ordering wrong: %+v", rows)
	}
	// k-replication keeps the DHT near-perfect with a quarter of the fleet
	// down (all 8 holders down at once is a ~1e-5 event); the lookup may
	// just have to route around failures, costing extra queries.
	if churned.DhtHit < 0.99 {
		t.Errorf("churned dht hit %v, want >= 0.99", churned.DhtHit)
	}
	if churned.DhtMsgs < calm.DhtMsgs {
		t.Errorf("churn made lookups cheaper: %v < %v", churned.DhtMsgs, calm.DhtMsgs)
	}
	// Hot groups concentrate serves on their k holders, so the per-holder
	// load column must be populated whenever lookups hit.
	if calm.DhtHit > 0 && calm.HolderLoad <= 0 {
		t.Errorf("holder load %v with dht hit %v", calm.HolderLoad, calm.DhtHit)
	}
}
