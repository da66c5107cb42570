package protocol

import (
	"sort"

	"groupcast/internal/core"
)

// This file holds the pure rules of rendezvous succession: deputy roster
// ranking, the staggered promotion timer, the epoch-compare total order that
// resolves conflicting roots after a partition heals, and the tree-level
// re-rooting a promotion performs. The live runtime (internal/node) and the
// offline succession experiment (internal/experiments) both run on these
// functions, so one deterministic rule set governs simulation and deployment.

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

// SuccessionOutcome summarizes re-rooting a tree at a deputy after its
// rendezvous died.
type SuccessionOutcome struct {
	// NewRendezvous is the promoted deputy.
	NewRendezvous int
	// OrphanSubtrees counts the dead root's other child subtrees that were
	// re-absorbed intact under the new root.
	OrphanSubtrees int
	// MembersRetained is the member count after the re-rooting (the dead
	// root's own membership is the only loss).
	MembersRetained int
	// JoinMessages counts the re-attachment traffic: one join per orphan
	// subtree root (each reattaches its whole subtree through the replicated
	// charter, no search needed).
	JoinMessages int
}

// PromoteDeputy re-roots the tree at the given deputy after the rendezvous
// failed: the dead root is removed, the deputy becomes the rendezvous, and
// the root's other child subtrees re-attach intact directly under the new
// root (the live runtime's equivalent: orphans fail over to the promoted
// deputy through the re-advertised group and their backup access points).
// The deputy must be a direct child of the current rendezvous — deputies are
// drawn from the root's children, whose subtrees never contain the root.
func PromoteDeputy(t *Tree, deputy int) (SuccessionOutcome, bool) {
	var out SuccessionOutcome
	old := t.Rendezvous
	if t.Parent[deputy] != old {
		return out, false
	}
	siblings := append([]int(nil), t.Children[old]...)
	sort.Ints(siblings) // deterministic re-attachment order
	delete(t.Parent, deputy)
	delete(t.Children, old)
	delete(t.Members, old)
	t.Rendezvous = deputy
	t.Members[deputy] = true
	for _, c := range siblings {
		if c == deputy {
			continue
		}
		t.Parent[c] = deputy
		t.Children[deputy] = append(t.Children[deputy], c)
		out.OrphanSubtrees++
		out.JoinMessages++
	}
	out.NewRendezvous = deputy
	out.MembersRetained = len(t.Members)
	return out, true
}
