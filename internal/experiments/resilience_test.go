package experiments

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
	"time"
)

var resilienceSeeds = flag.Int("resilience-seeds", 2,
	"run TestResilienceAcrossSeeds on seeds 1..N (CI's resilience step runs 50)")

// soakScenario is a trimmed parent-crash-under-5%-loss cell sized for CI.
func soakScenario() resilienceScenario {
	return resilienceScenario{
		name:  "ci-parent-crash/5%-loss",
		desc:  "trimmed regression cell",
		nodes: 12, stride: 1, crashes: 1,
		schedule: resilienceScenarios()[0].schedule,
	}
}

// TestResilienceAcrossSeeds is the resilience gate on more than the locked
// seed: every scenario runs on seeds 1..N, each on cellSeed(s, 71,
// scenario, 0) like the section's own cells, and must recover under one
// root, every survivor reattached and delivering, on every seed. With -v it
// logs, per scenario, the seeds recovered and the median TTR and repair
// messages.
func TestResilienceAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	scenarios := resilienceScenarios()
	seeds := *resilienceSeeds
	rows, err := mapOrdered(2, len(scenarios)*seeds, func(i int) (resilienceRow, error) {
		si, s := i/seeds, i%seeds
		return runResilienceCell(scenarios[si], cellSeed(int64(s+1), 71, int64(si), 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	median := func(xs []int64) string {
		if len(xs) == 0 {
			return "—"
		}
		slices.Sort(xs)
		return fmt.Sprint(xs[len(xs)/2])
	}
	t.Logf("%-24s %-10s %-7s %s", "scenario", "recovered", "ttr-ms", "repair-msgs")
	for si, sc := range scenarios {
		recovered := 0
		var ttr, msgs []int64
		for s, r := range rows[si*seeds:][:seeds] {
			msgs = append(msgs, int64(r.RepairMsgs))
			if !r.Recovered {
				t.Errorf("%s seed %d: %d/%d survivors reattached, delivery %.2f, %d roots; want full recovery under one root",
					sc.name, s+1, r.Reattached, r.Survivors, r.Delivery, r.Roots)
				continue
			}
			recovered++
			ttr = append(ttr, r.TTR.Milliseconds())
		}
		t.Logf("%-24s %-10s %-7s %s", sc.name, fmt.Sprintf("%d/%d", recovered, seeds), median(ttr), median(msgs))
	}
}

// TestChaosSoakParentCrashRecovers is the fixed-seed chaos-soak regression:
// under 5% loss with the busiest tree parent crash-stopped, every surviving
// member must reattach and hear post-fault payloads (delivery ratio 1.0)
// before the horizon, and the repair must go through a backup access point.
func TestChaosSoakParentCrashRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	sc := soakScenario()
	r, err := runResilienceCell(sc, cellSeed(1, 71, 100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Members != sc.nodes-1 {
		t.Errorf("%d of %d members joined", r.Members, sc.nodes-1)
	}
	if r.Survivors != r.Members-1 {
		t.Errorf("survivors = %d, want %d", r.Survivors, r.Members-1)
	}
	if !r.Recovered || r.Reattached != r.Survivors || r.Delivery != 1.0 {
		t.Errorf("recovered=%v reattached=%d/%d delivery=%.2f; want full recovery",
			r.Recovered, r.Reattached, r.Survivors, r.Delivery)
	}
	if r.ViaBackup == 0 {
		t.Error("repaired without using a backup access point")
	}
}

// TestChaosSoakBurstRecovers is a trimmed interior-burst cell: the four
// busiest tree nodes crash at once, and on one seed every surviving member
// must reattach under a single root and hear post-fault payloads, with
// backup failover carrying part of the repair.
func TestChaosSoakBurstRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	sc := resilienceScenario{name: "ci-interior-burst", desc: "trimmed regression cell",
		nodes: 48, stride: 4, crashes: 4, schedule: crashAll}
	r, err := runResilienceCell(sc, cellSeed(1, 71, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Survivors == 0 || !r.Recovered || r.Reattached != r.Survivors || r.Delivery != 1.0 || r.Roots != 1 {
		t.Errorf("recovered=%v reattached=%d/%d delivery=%.2f roots=%d; want full recovery under one root",
			r.Recovered, r.Reattached, r.Survivors, r.Delivery, r.Roots)
	}
	if r.ViaBackup == 0 {
		t.Error("repaired without using a backup access point")
	}
}

// TestChaosSoakWorkerDeterminism pins the -workers contract for the
// resilience experiment: the rows of two fixed-seed soaks, every column,
// are identical whether the cells run serially or concurrently.
func TestChaosSoakWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	sc := soakScenario()
	run := func(workers int) []resilienceRow {
		rows, err := mapOrdered(workers, 2, func(i int) (resilienceRow, error) {
			return runResilienceCell(sc, cellSeed(1, 71, 200, int64(i)))
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
			t.Fatalf("rows diverged across worker counts for cell %d:\n workers=1: %+v\n workers=2: %+v",
				i, serial[i], parallel[i])
		}
	}
}

// TestResilienceScheduleDescriptions keeps the scenario schedules honest:
// every scenario has a non-empty fault script that ends within the horizon.
func TestResilienceScheduleDescriptions(t *testing.T) {
	for _, sc := range resilienceScenarios() {
		events := sc.schedule([]string{"victim:addr"})
		if len(events) == 0 {
			t.Fatalf("scenario %s has an empty schedule", sc.name)
		}
		if events[len(events)-1].At > resilienceHorizon {
			t.Fatalf("scenario %s schedules events past the horizon", sc.name)
		}
	}
	if faultAt <= 0 || resilienceHorizon < 10*time.Second {
		t.Fatal("fault timing constants are out of shape")
	}
}

// TestDrivenExperimentsReadNoWallClock: the resilience, goodput, telemetry
// and overload experiments run real nodes on a node.Cluster, whose heap is
// their only clock. A wall-clock read, sleep or timer in them would make a
// column depend on the machine again.
func TestDrivenExperimentsReadNoWallClock(t *testing.T) {
	wallClock := map[string]bool{"Now": true, "Since": true, "Until": true, "AfterFunc": true, "Sleep": true,
		"NewTimer": true, "NewTicker": true, "After": true, "Tick": true}
	fset := token.NewFileSet()
	for _, name := range []string{"resilience.go", "goodput.go", "telemetry.go", "overload.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			if sel, ok := nd.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && wallClock[sel.Sel.Name] {
					t.Errorf("%s: time.%s in a virtual-time experiment; use the cluster's Now and Run", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}
