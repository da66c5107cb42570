package experiments

import (
	"testing"
)

// assertTelemetryInvariants checks the deterministic columns of one cell:
// the fleet view converged, every survivor detected the root crash, and
// detection stayed inside the epoch budget.
func assertTelemetryInvariants(t *testing.T, r telemetryRow) {
	t.Helper()
	if !r.Converged {
		t.Errorf("size=%d gossip=%d: fleet view never converged", r.Size, r.Gossip)
		return
	}
	if !r.Detected {
		t.Errorf("size=%d gossip=%d: a survivor never fired the stale alert", r.Size, r.Gossip)
		return
	}
	if r.DetectEpochs == 0 || r.DetectEpochs > telemetryDetectBudget {
		t.Errorf("size=%d gossip=%d: detection took %d epochs, want 1..%d",
			r.Size, r.Gossip, r.DetectEpochs, telemetryDetectBudget)
	}
}

// TestTelemetryDetectionInvariants runs one cell and pins the contract:
// convergence, detection on every survivor, and detection latency within
// the 3-epoch budget.
func TestTelemetryDetectionInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("live-cluster chaos study")
	}
	row, err := runTelemetryCell(telemetryCell{size: 6, gossip: 2, seed: cellSeed(1, 97, 100, 0)})
	if err != nil {
		t.Fatal(err)
	}
	assertTelemetryInvariants(t, row)
}

// TestTelemetryWorkerInvariance pins the -workers contract: the rows, every
// column, are identical whether cells run serially or concurrently, and the
// detection invariants hold in each.
func TestTelemetryWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("live-cluster chaos study")
	}
	cells := []telemetryCell{
		{size: 6, gossip: 1, seed: cellSeed(1, 97, 200, 0)},
		{size: 6, gossip: 2, seed: cellSeed(1, 97, 200, 1)},
	}
	run := func(workers int) []telemetryRow {
		rows, err := mapOrdered(workers, len(cells), func(i int) (telemetryRow, error) {
			return runTelemetryCell(cells[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			assertTelemetryInvariants(t, r)
		}
		return rows
	}
	serial, parallel := run(1), run(2)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("rows diverged across worker counts:\n workers=1: %+v\n workers=2: %+v", serial[i], parallel[i])
		}
	}
}
