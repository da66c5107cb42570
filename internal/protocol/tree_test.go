package protocol

import (
	"math/rand"
	"testing"
	"testing/quick"

	"groupcast/internal/metrics"
)

func TestTreeBasics(t *testing.T) {
	tr := NewTree(0)
	if !tr.Contains(0) || tr.Size() != 1 || tr.NumMembers() != 1 {
		t.Fatal("fresh tree malformed")
	}
	if err := tr.attach(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.attach(2, 1); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 3 {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.attach(2, 0); err == nil {
		t.Fatal("double attach accepted")
	}
	if err := tr.attach(3, 99); err == nil {
		t.Fatal("attach under off-tree parent accepted")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Parent[2] != 1 || tr.Parent[1] != 0 {
		t.Fatalf("parents = %v", tr.Parent)
	}
	if len(tr.Parent) != 2 {
		t.Fatalf("edges = %v", tr.Parent)
	}
}

func TestTreeValidateCatchesCorruption(t *testing.T) {
	tr := NewTree(0)
	_ = tr.attach(1, 0)
	_ = tr.attach(2, 1)
	// Introduce a cycle by hand.
	tr.Parent[1] = 2
	if err := tr.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
	tr2 := NewTree(0)
	tr2.Members[7] = true
	if err := tr2.Validate(); err == nil {
		t.Fatal("off-tree member not detected")
	}
	tr3 := NewTree(0)
	tr3.Parent[5] = 9 // dangling parent
	if err := tr3.Validate(); err == nil {
		t.Fatal("dangling parent not detected")
	}
}

func TestSimplifyPath(t *testing.T) {
	cases := []struct {
		in   []int
		want []int
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}},
		{[]int{1, 2, 3, 2, 4}, []int{1, 2, 4}},
		{[]int{1, 2, 1, 3}, []int{1, 3}},
		{[]int{5}, []int{5}},
		// Rewinding at the repeated 2 discards {3,4}; 3 later reappears as a
		// fresh node, giving the simple path 1→2→5→3→6 over input-adjacent
		// pairs.
		{[]int{1, 2, 3, 4, 2, 5, 3, 6}, []int{1, 2, 5, 3, 6}},
	}
	for _, c := range cases {
		in := append([]int(nil), c.in...)
		got := simplifyPath(in)
		if len(got) != len(c.want) {
			t.Fatalf("simplify(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("simplify(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestSimplifyPathNoDuplicatesProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		in := make([]int, len(raw))
		for i, r := range raw {
			in[i] = int(r % 16)
		}
		got := simplifyPath(in)
		seen := make(map[int]bool)
		for _, p := range got {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		// Endpoints preserved.
		if len(in) > 0 {
			if got[0] != in[0] || got[len(got)-1] != in[len(in)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeViaReversePath(t *testing.T) {
	g, rl := testGroupCastOverlay(t, 300, 11)
	rng := rand.New(rand.NewSource(12))
	adv, err := Advertise(g, 0, rl, DefaultAdvertiseConfig(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree(0)
	// Pick a subscriber that received the advertisement.
	var s int = -1
	for p := range adv.FromHop {
		if p != 0 {
			s = p
			break
		}
	}
	if s == -1 {
		t.Fatal("advertisement reached nobody")
	}
	res := Subscribe(g, adv, tr, s, DefaultSubscribeConfig(), nil)
	if !res.OK || res.UsedSearch {
		t.Fatalf("res = %+v", res)
	}
	if !tr.Members[s] {
		t.Fatal("subscriber not a member")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.SearchLatency != 0 {
		t.Fatal("reverse-path subscription has search latency")
	}
}

func TestSubscribeViaSearch(t *testing.T) {
	g, rl := testGroupCastOverlay(t, 500, 13)
	// A tight advertisement so some peers miss it.
	cfg := AdvertiseConfig{Scheme: SSA, TTL: 4, Fraction: 0.3}
	adv, err := Advertise(g, 0, rl, cfg, rand.New(rand.NewSource(14)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var s = -1
	for _, p := range g.AlivePeers() {
		if !adv.Received(p) {
			s = p
			break
		}
	}
	if s == -1 {
		t.Skip("advertisement reached everyone")
	}
	tr := NewTree(0)
	ctr := metrics.NewCounters()
	res := Subscribe(g, adv, tr, s, DefaultSubscribeConfig(), ctr)
	if !res.OK {
		t.Skipf("no access point within TTL 2 of %d", s)
	}
	if !res.UsedSearch {
		t.Fatal("search expected")
	}
	if res.SearchMessages == 0 || ctr.Get(CtrSearch) == 0 {
		t.Fatal("search traffic not counted")
	}
	if res.SearchLatency <= 0 {
		t.Fatal("search latency not recorded")
	}
	if !tr.Members[s] {
		t.Fatal("subscriber not a member")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeDeadAndRepeat(t *testing.T) {
	g, rl := testGroupCastOverlay(t, 100, 15)
	adv, err := Advertise(g, 0, rl, DefaultAdvertiseConfig(), rand.New(rand.NewSource(16)), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree(0)
	g.RemovePeer(50)
	if res := Subscribe(g, adv, tr, 50, DefaultSubscribeConfig(), nil); res.OK {
		t.Fatal("dead subscriber succeeded")
	}
	// Subscribing an existing tree node just marks membership.
	var s = -1
	for p := range adv.FromHop {
		if p != 0 && g.Alive(p) {
			s = p
			break
		}
	}
	if s == -1 {
		t.Skip("no candidate")
	}
	first := Subscribe(g, adv, tr, s, DefaultSubscribeConfig(), nil)
	if !first.OK {
		t.Fatal("first subscribe failed")
	}
	second := Subscribe(g, adv, tr, s, DefaultSubscribeConfig(), nil)
	if !second.OK || second.JoinMessages != 0 {
		t.Fatalf("re-subscribe = %+v", second)
	}
}

func TestBuildGroupProducesValidSpanningTree(t *testing.T) {
	g, rl := testGroupCastOverlay(t, 800, 17)
	rng := rand.New(rand.NewSource(18))
	subs := make([]int, 0, 80)
	for _, p := range rng.Perm(800)[:80] {
		if g.Alive(p) {
			subs = append(subs, p)
		}
	}
	tr, adv, results, err := BuildGroup(g, 0, subs, rl,
		DefaultAdvertiseConfig(), DefaultSubscribeConfig(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for i, r := range results {
		if r.OK {
			okCount++
			if !tr.Members[subs[i]] {
				t.Fatalf("subscriber %d OK but not a member", subs[i])
			}
		}
	}
	// The paper reports ~100% subscription success with TTL 2 on GroupCast
	// overlays; require a high rate.
	if frac := float64(okCount) / float64(len(subs)); frac < 0.95 {
		t.Fatalf("subscription success rate %v", frac)
	}
	if adv.NumReceived() == 0 {
		t.Fatal("empty advertisement")
	}
	// Every member's path to root exists and is acyclic (Validate covers
	// structure; spot-check path endpoints).
	for m := range tr.Members {
		p := m
		for hops := 0; p != tr.Rendezvous; hops++ {
			if hops == tr.Size() {
				t.Fatalf("member %d path does not reach rendezvous", m)
			}
			p = tr.Parent[p]
		}
	}
}
