package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"groupcast/internal/core"
)

func TestDeputyIndexAndDelay(t *testing.T) {
	roster := []string{"x", "y", "z"}
	if i := DeputyIndex(roster, "y"); i != 1 {
		t.Fatalf("DeputyIndex(y) = %d, want 1", i)
	}
	if i := DeputyIndex(roster, "w"); i != -1 {
		t.Fatalf("DeputyIndex(w) = %d, want -1", i)
	}
	if d := SuccessionDelayEpochs(3, 0); d != 3 {
		t.Fatalf("delay(3,0) = %d, want 3", d)
	}
	if d := SuccessionDelayEpochs(3, 2); d != 5 {
		t.Fatalf("delay(3,2) = %d, want 5", d)
	}
	if d := SuccessionDelayEpochs(3, -1); d != -1 {
		t.Fatalf("delay(3,-1) = %d, want -1 (never)", d)
	}
	if d := SuccessionDelayEpochs(0, 1); d != 2 {
		t.Fatalf("delay(0,1) = %d, want 2 (suspectEpochs floors at 1)", d)
	}
}

func TestCompareRootsTotalOrder(t *testing.T) {
	cases := []struct {
		ea   uint64
		ia   string
		eb   uint64
		ib   string
		want int
	}{
		{2, "z", 1, "a", 1},  // higher epoch wins regardless of ID
		{1, "a", 2, "z", -1}, //
		{3, "a", 3, "b", 1},  // tie: lower ID wins
		{3, "b", 3, "a", -1},
		{3, "a", 3, "a", 0},
	}
	for _, c := range cases {
		if got := CompareRoots(c.ea, c.ia, c.eb, c.ib); got != c.want {
			t.Fatalf("CompareRoots(%d,%s vs %d,%s) = %d, want %d",
				c.ea, c.ia, c.eb, c.ib, got, c.want)
		}
	}
	// Antisymmetry over random claims.
	rng := rand.New(rand.NewSource(7))
	ids := []string{"a", "b", "c"}
	for i := 0; i < 200; i++ {
		ea, eb := uint64(rng.Intn(3)), uint64(rng.Intn(3))
		ia, ib := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if CompareRoots(ea, ia, eb, ib) != -CompareRoots(eb, ib, ea, ia) {
			t.Fatalf("CompareRoots not antisymmetric for (%d,%s) vs (%d,%s)", ea, ia, eb, ib)
		}
	}
}

func TestNextRootEpoch(t *testing.T) {
	if e := NextRootEpoch(1); e != 2 {
		t.Fatalf("NextRootEpoch(1) = %d, want 2", e)
	}
	if e := NextRootEpoch(0); e != 1 {
		t.Fatalf("NextRootEpoch(0) = %d, want 1", e)
	}
}

// TestDeputyRosterOrdersByUtilityThenID: a powerful root ranks its
// children by capacity, two equal children tie on utility and go by ID, the
// roster is cut at k, k = 0 disables it, and the inputs are not reordered.
func TestDeputyRosterOrdersByUtilityThenID(t *testing.T) {
	kids := []core.Candidate{
		{Capacity: 10, Distance: 5},
		{Capacity: 1000, Distance: 50},
		{Capacity: 10, Distance: 5},
		{Capacity: 100, Distance: 20},
	}
	ids := []string{"d", "a", "b", "c"}
	if got := DeputyRoster(0.99, kids, ids, 4); fmt.Sprint(got) != "[1 3 2 0]" {
		t.Fatalf("roster = %v, want [1 3 2 0]", got)
	}
	if got := DeputyRoster(0.99, kids, ids, 3); fmt.Sprint(got) != "[1 3 2]" {
		t.Fatalf("k=3 roster = %v, want [1 3 2]", got)
	}
	if got := DeputyRoster(0.5, kids, ids, 0); got != nil {
		t.Fatalf("k=0 should disable the roster, got %v", got)
	}
	if ids[0] != "d" || kids[0].Capacity != 10 {
		t.Fatalf("DeputyRoster reordered its inputs: %v %v", ids, kids)
	}
}
