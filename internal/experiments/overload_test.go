package experiments

import (
	"testing"
)

// assertOverloadInvariants checks the policy-determined columns of one
// (priority, single-queue) row pair at the same offered load: the priority
// queue never sheds a control message and never lets the storm trigger a
// succession; the classless ablation under the same storm sheds control.
func assertOverloadInvariants(t *testing.T, prio, fifo overloadRow) {
	t.Helper()
	if prio.CtrlDelivery != 1.0 || prio.CtrlSheds != 0 {
		t.Errorf("priority/%dx: ctrl delivery %.3f with %d sheds; control must never shed",
			prio.Load, prio.CtrlDelivery, prio.CtrlSheds)
	}
	if prio.Successions != 0 {
		t.Errorf("priority/%dx: %d successions during a payload storm", prio.Load, prio.Successions)
	}
	if fifo.CtrlSheds == 0 {
		t.Errorf("single-queue/%dx: storm shed no control messages; the ablation lost its teeth", fifo.Load)
	}
	if prio.BESheds == 0 {
		t.Errorf("priority/%dx: storm shed no best-effort traffic; the inbox never saturated", prio.Load)
	}
	if prio.RelSheds != 0 || fifo.RelSheds != 0 {
		t.Errorf("load %dx: reliable-class sheds %d/%d in a best-effort-only storm",
			prio.Load, prio.RelSheds, fifo.RelSheds)
	}
}

// TestOverloadPolicyInvariants runs one storm cell per policy and pins the
// overload plane's contract: control-class delivery 1.000 and zero
// successions under priority shedding, control losses under the classless
// single queue.
func TestOverloadPolicyInvariants(t *testing.T) {
	const load = 10
	prio, err := runOverloadCell(overloadCell{load: load, seed: cellSeed(1, 83, 100, 0)})
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := runOverloadCell(overloadCell{load: load, classless: true, seed: cellSeed(1, 83, 100, 1)})
	if err != nil {
		t.Fatal(err)
	}
	assertOverloadInvariants(t, prio, fifo)
	if prio.Episodes == 0 {
		t.Error("priority: sustained saturation never engaged the overload controller")
	}
}

// TestOverloadWorkerInvariance pins the -workers contract for the overload
// experiment: the rows, every column, are identical whether the cells run
// serially or concurrently, and the policy invariants hold.
func TestOverloadWorkerInvariance(t *testing.T) {
	const load = 10
	cells := []overloadCell{
		{load: load, seed: cellSeed(1, 83, 200, 0)},
		{load: load, classless: true, seed: cellSeed(1, 83, 200, 1)},
	}
	run := func(workers int) []overloadRow {
		rows, err := mapOrdered(workers, len(cells), func(i int) (overloadRow, error) {
			return runOverloadCell(cells[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	parallel := run(2)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("rows diverged across worker counts:\n workers=1: %+v\n workers=2: %+v",
				serial[i], parallel[i])
		}
	}
	assertOverloadInvariants(t, serial[0], serial[1])
}
