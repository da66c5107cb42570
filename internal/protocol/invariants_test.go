package protocol

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRandomOperationSequencesPreserveInvariants drives a group through a
// random interleaving of subscribes and publishes, validating the tree after
// every operation.
func TestRandomOperationSequencesPreserveInvariants(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		if len(opsRaw) > 60 {
			opsRaw = opsRaw[:60]
		}
		g, rl := testGroupCastOverlay(t, 250, seed)
		rng := rand.New(rand.NewSource(seed))
		adv, err := Advertise(g, 0, rl, DefaultAdvertiseConfig(), rng, nil)
		if err != nil {
			return false
		}
		tree := NewTree(0)
		for _, op := range opsRaw {
			if op%2 == 0 { // subscribe a random alive peer; an odd op only publishes
				alive := g.AlivePeers()
				if len(alive) == 0 {
					return false
				}
				Subscribe(g, adv, tree, alive[rng.Intn(len(alive))], DefaultSubscribeConfig(), nil)
			}
			if err := tree.Validate(); err != nil {
				t.Logf("tree invalid after op %d: %v", op, err)
				return false
			}
			// Publishing from the root must reach exactly the members.
			res, err := Publish(g, tree, 0, nil)
			if err != nil {
				return false
			}
			if len(res.Delays) != tree.NumMembers()-1 {
				t.Logf("publish reached %d of %d members", len(res.Delays), tree.NumMembers()-1)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
