package protocol

import (
	"sort"

	"groupcast/internal/core"
)

// This file holds the pure rules of rendezvous succession: deputy roster
// ranking, the staggered promotion timer, and the epoch-compare total order
// that resolves conflicting roots after a partition heals. The live runtime
// (internal/node) runs on them, and the succession experiment
// (internal/experiments) measures that runtime on a virtual-time cluster.

// DeputyRoster is the roster rule: the rendezvous scores its children by
// Eq. 6 Selection Preference at its resource level r and ranks them highest
// utility first, ties broken by ascending ID so every replica of the
// charter agrees on the order. ids name the children (transport addresses
// in the live runtime, zero-padded peer indices in the simulator). It
// returns up to k indices into kids, best first; k <= 0 returns none
// (succession disabled).
func DeputyRoster(r float64, kids []core.Candidate, ids []string, k int) []int {
	if k <= 0 || len(kids) == 0 {
		return nil
	}
	utility, err := core.SelectionPreferencesFor(r, kids)
	if err != nil {
		utility = make([]float64, len(kids))
	}
	out := make([]int, len(kids))
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(a, b int) bool {
		i, j := out[a], out[b]
		if utility[i] != utility[j] {
			return utility[i] > utility[j]
		}
		return ids[i] < ids[j]
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// DeputyIndex returns id's position in the roster, or -1 when id is not a
// deputy.
func DeputyIndex(roster []string, id string) int {
	for i, r := range roster {
		if r == id {
			return i
		}
	}
	return -1
}

// SuccessionDelayEpochs is how many silent beacon epochs deputy #rosterIndex
// waits before promoting itself: the shared suspicion threshold plus its
// roster position, so deputies stagger deterministically and the first live
// one wins without an election round trip. A negative index (not a deputy)
// returns -1: never promote.
func SuccessionDelayEpochs(suspectEpochs, rosterIndex int) int {
	if rosterIndex < 0 {
		return -1
	}
	if suspectEpochs < 1 {
		suspectEpochs = 1
	}
	return suspectEpochs + rosterIndex
}

// CompareRoots totally orders two conflicting root claims for one group:
// it returns >0 when claim A wins, <0 when claim B wins, and 0 when the
// claims are identical. A higher epoch always wins (the root that survived
// more successions is the live lineage); equal epochs — two deputies that
// promoted independently across a partition — break the tie by ascending ID,
// so the lexicographically lower address keeps the group and the other root
// demotes and re-joins.
func CompareRoots(epochA uint64, idA string, epochB uint64, idB string) int {
	switch {
	case epochA > epochB:
		return 1
	case epochA < epochB:
		return -1
	case idA < idB:
		return 1
	case idA > idB:
		return -1
	}
	return 0
}

// NextRootEpoch is the epoch a promoting deputy adopts, given the epoch of
// the charter it holds: one past the dead root's, so the succession is
// visible to every epoch comparison. Charter epochs start at 1 (a zero
// charter means "no charter"), but a zero input still promotes safely.
func NextRootEpoch(charterEpoch uint64) uint64 { return charterEpoch + 1 }
