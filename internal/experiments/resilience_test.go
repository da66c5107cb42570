package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
	"time"
)

// soakScenario is a trimmed parent-crash-under-5%-loss cell sized for CI.
func soakScenario() resilienceScenario {
	return resilienceScenario{
		name:  "ci-parent-crash/5%-loss",
		desc:  "trimmed regression cell",
		nodes: 12, stride: 1, crashes: 1,
		schedule: resilienceScenarios()[0].schedule,
	}
}

// TestChaosSoakParentCrashRecovers is the fixed-seed chaos-soak regression:
// under 5% loss with the busiest tree parent crash-stopped, every surviving
// member must reattach and hear post-fault payloads (delivery ratio 1.0)
// before the horizon — in both repair modes — and the repair strategies
// must actually differ (backups used in one, searches in the other).
func TestChaosSoakParentCrashRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	sc := soakScenario()
	backup, err := runResilienceCell(sc, "backup", cellSeed(1, 71, 100, 0))
	if err != nil {
		t.Fatal(err)
	}
	search, err := runResilienceCell(sc, "search", cellSeed(1, 71, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []resilienceRow{backup, search} {
		if r.Members != sc.nodes-1 {
			t.Errorf("%s: %d of %d members joined", r.Mode, r.Members, sc.nodes-1)
		}
		if r.Survivors != r.Members-1 {
			t.Errorf("%s: survivors = %d, want %d", r.Mode, r.Survivors, r.Members-1)
		}
		if !r.Recovered || r.Reattached != r.Survivors || r.Delivery != 1.0 {
			t.Errorf("%s: recovered=%v reattached=%d/%d delivery=%.2f; want full recovery",
				r.Mode, r.Recovered, r.Reattached, r.Survivors, r.Delivery)
		}
	}
	if backup.ViaBackup == 0 {
		t.Error("backup mode repaired without using a backup access point")
	}
	if search.ViaBackup != 0 {
		t.Errorf("search mode used %d backup repairs despite the mode", search.ViaBackup)
	}
	if search.ViaSearch == 0 {
		t.Error("search mode recovered without any search repair")
	}
}

// TestChaosSoakBurstRecovers is a trimmed interior-burst cell: the four
// busiest tree nodes crash at once, and both repair modes, on one seed, must
// reattach every surviving member under a single root with every survivor
// hearing post-fault payloads. Backup failover must carry part of the
// repair and leave fewer searches than search-only repair needs.
func TestChaosSoakBurstRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	sc := resilienceScenario{name: "ci-interior-burst", desc: "trimmed regression cell",
		nodes: 48, stride: 4, crashes: 4, schedule: crashAll}
	seed := cellSeed(1, 71, 300, 0)
	backup, err := runResilienceCell(sc, "backup", seed)
	if err != nil {
		t.Fatal(err)
	}
	search, err := runResilienceCell(sc, "search", seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []resilienceRow{backup, search} {
		if r.Survivors == 0 || !r.Recovered || r.Reattached != r.Survivors || r.Delivery != 1.0 || r.Roots != 1 {
			t.Errorf("%s: recovered=%v reattached=%d/%d delivery=%.2f roots=%d; want full recovery under one root",
				r.Mode, r.Recovered, r.Reattached, r.Survivors, r.Delivery, r.Roots)
		}
	}
	if backup.ViaBackup == 0 {
		t.Error("backup mode repaired without using a backup access point")
	}
	if backup.ViaSearch >= search.ViaSearch {
		t.Errorf("backup mode searched %d times, search-only repair %d; want fewer", backup.ViaSearch, search.ViaSearch)
	}
}

// TestChaosSoakWorkerDeterminism pins the -workers contract for the
// resilience experiment: the rows of a fixed-seed soak, every column, are
// identical whether the cells run serially or concurrently.
func TestChaosSoakWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	sc := soakScenario()
	modes := []string{"backup", "search"}
	run := func(workers int) []resilienceRow {
		rows, err := mapOrdered(workers, len(modes), func(i int) (resilienceRow, error) {
			return runResilienceCell(sc, modes[i], cellSeed(1, 71, 200, int64(i)))
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
			t.Fatalf("rows diverged across worker counts for %s:\n workers=1: %+v\n workers=2: %+v",
				modes[i], serial[i], parallel[i])
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
