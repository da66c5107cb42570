package experiments

import (
	"testing"

	"groupcast/internal/wire"
)

// TestGoodputReliableModesRecoverLoss is the fixed-seed data-plane
// regression: under seeded per-link loss, both reliable modes must deliver
// 100% of the publish schedule (complete=yes) with reliable-ordered also
// FIFO at every member, while best-effort flooding is incomplete on every
// lossy scenario — the contrast proving the NACK/digest machinery, not
// luck, closes the gaps.
func TestGoodputReliableModesRecoverLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("live goodput sweep")
	}
	rows, err := runGoodputRows(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(goodputScenarios()) * 3; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	lossy := make(map[string]bool)
	for _, sc := range goodputScenarios() {
		lossy[sc.name] = sc.lossy
	}
	for _, r := range rows {
		if r.Members != goodputNodes {
			t.Errorf("%s/%s: %d of %d members joined", r.Scenario, r.Mode, r.Members, goodputNodes)
		}
		if r.Published != 2*goodputPerSource {
			t.Errorf("%s/%s: published = %d", r.Scenario, r.Mode, r.Published)
		}
		switch r.Mode {
		case wire.Reliable, wire.ReliableOrdered:
			if !r.Complete || r.Delivery != 1.0 {
				t.Errorf("%s/%s: complete=%v delivery=%.3f; reliable modes must recover every loss",
					r.Scenario, r.Mode, r.Complete, r.Delivery)
			}
			if r.Mode == wire.ReliableOrdered && !r.FIFO {
				t.Errorf("%s/%s: FIFO violated in ordered mode", r.Scenario, r.Mode)
			}
			if lossy[r.Scenario] && r.Nacks == 0 && r.Retransmits == 0 {
				t.Errorf("%s/%s: recovered a lossy run with zero NACKs and retransmits?",
					r.Scenario, r.Mode)
			}
		case wire.BestEffort:
			if lossy[r.Scenario] && r.Complete {
				t.Errorf("%s/best-effort: complete under loss — the loss schedule is not biting", r.Scenario)
			}
			if !lossy[r.Scenario] && !r.Complete {
				t.Errorf("%s/best-effort: incomplete without loss", r.Scenario)
			}
			if r.Nacks != 0 || r.Retransmits != 0 {
				t.Errorf("%s/best-effort: nacks=%d retransmits=%d in fire-and-forget mode",
					r.Scenario, r.Nacks, r.Retransmits)
			}
		}
	}
}

// TestGoodputWorkerDeterminism pins the -workers contract for the goodput
// sweep: the rows of a fixed-seed run, every column, are identical whether
// the cells run serially or concurrently.
func TestGoodputWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("live goodput sweep")
	}
	run := func(workers int) []goodputRow {
		rows, err := runGoodputRows(7, workers)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	parallel := run(3)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("rows diverged across worker counts:\n workers=1: %+v\n workers=3: %+v",
				serial[i], parallel[i])
		}
	}
}
