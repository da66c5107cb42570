package core

import (
	"fmt"
	"math/rand"
	"testing"

	"groupcast/internal/peer"
)

func TestResourceLevelIsThePapersEstimate(t *testing.T) {
	known := []Candidate{{Capacity: 1}, {Capacity: 10}, {Capacity: 100}, {Capacity: 1000}}
	// Strictly weaker peers over all known ones: 1 of 4, not "at most as
	// strong over n+1".
	if got := ResourceLevel(10, known); got != 0.25 {
		t.Fatalf("r̂ = %v, want 0.25", got)
	}
	if got := ResourceLevel(1, known); got != 0.01 {
		t.Fatalf("weakest r̂ = %v, want the 0.01 clamp", got)
	}
	if got := ResourceLevel(10, nil); got != 0.5 {
		t.Fatalf("r̂ with nobody known = %v, want 0.5", got)
	}
}

func TestSelectNeighborsIsEq6OverProbedFrequencies(t *testing.T) {
	probed := make([]Probed, 9)
	freqs := make([]Candidate, len(probed))
	caps := make([]peer.Capacity, len(probed))
	for i := range probed {
		probed[i] = Probed{Candidate: Candidate{Capacity: float64(1 + i*i), Distance: float64(10 + 7*i%5)}, Freq: 1 + i%3}
		freqs[i] = Candidate{Capacity: float64(probed[i].Freq), Distance: probed[i].Distance}
		caps[i] = peer.Capacity(probed[i].Capacity)
	}
	got, r, err := SelectNeighbors(20, probed, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	wantR := peer.EstimateResourceLevel(20, caps)
	want, _ := SelectByPreference(wantR, freqs, 4, rand.New(rand.NewSource(3)))
	if r != wantR || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SelectNeighbors = %v at r̂ %v, want %v at %v", got, r, want, wantR)
	}
	if _, _, err := SelectNeighbors(20, nil, 4, rand.New(rand.NewSource(3))); err == nil {
		t.Fatal("an empty candidate list selected something")
	}
}

func TestSelectForwardersFanout(t *testing.T) {
	nbrs := make([]Candidate, 10)
	for i := range nbrs {
		nbrs[i] = Candidate{Capacity: float64(1 + i), Distance: float64(1 + i)}
	}
	for _, tc := range []struct {
		fraction float64
		n, want  int
	}{{0.4, 10, 4}, {0.05, 10, 1}, {0, 3, 1}, {1, 10, 10}, {0.9, 2, 2}} {
		if got := Fanout(tc.fraction, tc.n); got != tc.want {
			t.Errorf("Fanout(%v, %d) = %d, want %d", tc.fraction, tc.n, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	got, err := SelectForwarders(0.5, nbrs, 0.4, rng)
	if err != nil || len(got) != 4 {
		t.Fatalf("SSA over 10 at 0.4 = %v, %v; want 4 distinct", got, err)
	}
	// A fan-out that covers the list forwards to all, in order, and draws
	// nothing.
	rng = rand.New(rand.NewSource(1))
	all, _ := SelectForwarders(0.5, nbrs[:2], 0.6, rng)
	if fmt.Sprint(all) != "[0 1]" {
		t.Fatalf("covering fan-out = %v, want [0 1]", all)
	}
	if rng.Int63() != rand.New(rand.NewSource(1)).Int63() {
		t.Fatal("a covering fan-out drew from the rng")
	}
}

func TestAcceptBackLinkDraws(t *testing.T) {
	nbrs := []Candidate{{Capacity: 100, Distance: 1}, {Capacity: 100, Distance: 2}}
	// No neighbours: PB_k = 1, one draw, always accepted.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if !AcceptBackLink(1, Candidate{Capacity: 1, Distance: 50}, nil, 0, rng) {
			t.Fatal("a peer with no neighbours declined")
		}
	}
	// The weakest self and a weak, far requester: PB_k = 0, so only pb can
	// accept, after a second draw.
	for _, fallback := range []float64{0, 1} {
		rng := rand.New(rand.NewSource(1))
		got := AcceptBackLink(1, Candidate{Capacity: 1, Distance: 50}, nbrs, fallback, rng)
		if got != (fallback == 1) {
			t.Fatalf("fallback %v: accepted %v", fallback, got)
		}
		ref := rand.New(rand.NewSource(1))
		ref.Float64()
		ref.Float64()
		if rng.Int63() != ref.Int63() {
			t.Fatalf("fallback %v: a declined PB_k draw must be followed by exactly one pb draw", fallback)
		}
	}
}
