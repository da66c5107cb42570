// End-to-end integration tests across every layer: underlay → coordinates →
// overlay → group protocol → ESM metrics, and the live runtime on top of the
// in-memory fabric.
package groupcast_test

import (
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/experiments"
	"groupcast/internal/netsim"
	"groupcast/internal/node"
	"groupcast/internal/overlay"
	"groupcast/internal/protocol"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// TestFullSimulationPipeline drives the complete simulation stack once at
// small scale and checks cross-layer consistency.
func TestFullSimulationPipeline(t *testing.T) {
	p, err := experiments.BuildPipeline(experiments.DefaultPipelineConfig(500, 3))
	if err != nil {
		t.Fatal(err)
	}

	// Coordinate estimates must correlate with the true underlay: closer in
	// estimate should usually mean closer in truth.
	rng := rand.New(rand.NewSource(4))
	agree := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		a, b, c := rng.Intn(500), rng.Intn(500), rng.Intn(500)
		if a == b || b == c || a == c {
			agree++ // degenerate triple; don't count against
			continue
		}
		estCloser := p.Uni.Dist(a, b) < p.Uni.Dist(a, c)
		trueCloser := p.Att.Distance(netsim.PeerID(a), netsim.PeerID(b)) < p.Att.Distance(netsim.PeerID(a), netsim.PeerID(c))
		if estCloser == trueCloser {
			agree++
		}
	}
	if frac := float64(agree) / trials; frac < 0.7 {
		t.Fatalf("coordinate ordering agreement %.2f too low", frac)
	}

	g, levels, ctr, err := p.GroupCastOverlay(3)
	if err != nil {
		t.Fatal(err)
	}
	if !overlay.IsConnected(g) {
		t.Fatal("overlay disconnected")
	}
	if ctr.Get(overlay.CtrProbe) == 0 {
		t.Fatal("no probe traffic accounted")
	}

	subs := rng.Perm(500)[:50]
	tree, adv, results, err := protocol.BuildGroup(g, 0, subs, levels,
		protocol.DefaultAdvertiseConfig(), protocol.DefaultSubscribeConfig(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	ok := 0
	for _, r := range results {
		if r.OK {
			ok++
		}
	}
	if float64(ok) < 0.95*float64(len(subs)) {
		t.Fatalf("subscription success %d/%d", ok, len(subs))
	}
	if adv.Messages == 0 {
		t.Fatal("no advertisement traffic")
	}

	m, err := p.Env.Evaluate(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.DelayPenalty < 1 || m.LinkStress < 1 || m.NodeStress < 1 {
		t.Fatalf("metrics out of range: %+v", m)
	}
	// Publish over the estimated universe agrees with the member count.
	pub, err := protocol.Publish(g, tree, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pub.Delays) != tree.NumMembers()-1 {
		t.Fatalf("publish reached %d of %d members", len(pub.Delays), tree.NumMembers()-1)
	}
}

// TestLiveRuntimeMultipleGroups runs one live cluster hosting three
// concurrent groups with overlapping membership.
func TestLiveRuntimeMultipleGroups(t *testing.T) {
	net := transport.NewMemNetwork()
	rng := rand.New(rand.NewSource(5))
	var nodes []*node.Node
	for i := 0; i < 18; i++ {
		cfg := node.DefaultConfig(float64(10*(1+i%3)),
			coords.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(i+1))
		cfg.HeartbeatInterval = 200 * time.Millisecond
		nd := node.New(net.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for j := 0; j < len(nodes) && j < 6; j++ {
			contacts = append(contacts, nodes[len(nodes)-1-j].Addr())
		}
		if err := nd.Bootstrap(contacts, 3*time.Second); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()

	groups := []string{"alpha", "beta", "gamma"}
	for gi, gid := range groups {
		rdv := nodes[gi]
		if err := rdv.CreateGroup(gid); err != nil {
			t.Fatal(err)
		}
		if err := rdv.Advertise(gid); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(150 * time.Millisecond)

	// Every node joins two of the three groups (round-robin overlap).
	type key struct{ node, group string }
	var mu sync.Mutex
	delivered := map[key]int{}
	memberOf := map[string][]*node.Node{}
	for i, nd := range nodes {
		nd := nd
		nd.SetPayloadHandler(func(gid string, _ wire.PeerInfo, _ []byte) {
			mu.Lock()
			delivered[key{nd.Addr(), gid}]++
			mu.Unlock()
		})
		for off := 0; off < 2; off++ {
			gid := groups[(i+off)%3]
			if nodes[(i+off)%3] == nd {
				continue // rendezvous is already a member
			}
			if err := nd.Join(gid, 2*time.Second); err == nil {
				memberOf[gid] = append(memberOf[gid], nd)
			}
		}
	}
	for _, gid := range groups {
		if len(memberOf[gid]) < 6 {
			t.Fatalf("group %s has only %d members", gid, len(memberOf[gid]))
		}
	}

	// Each rendezvous publishes into its own group; deliveries must stay
	// group-scoped.
	for gi, gid := range groups {
		if err := nodes[gi].Publish(gid, []byte(gid+" payload")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		total := 0
		for _, c := range delivered {
			total += c
		}
		want := len(memberOf["alpha"]) + len(memberOf["beta"]) + len(memberOf["gamma"])
		done := total >= want*8/10
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	// No node may receive a payload for a group it did not join.
	joined := map[key]bool{}
	for gid, ms := range memberOf {
		for _, m := range ms {
			joined[key{m.Addr(), gid}] = true
		}
	}
	for gi, gid := range groups {
		joined[key{nodes[gi].Addr(), gid}] = true
	}
	for k, c := range delivered {
		if !joined[k] {
			t.Fatalf("non-member %s received %d payloads of %s", k.node, c, k.group)
		}
		if c > 1 {
			t.Fatalf("%s received %d copies in %s", k.node, c, k.group)
		}
	}
}

// TestBenchModuleCompiles keeps tier-1 honest about the nested benchmark
// module: internal/bench has its own go.mod (replace groupcast => ../..), so
// `go build ./... && go test ./...` at the root never compiles it and an API
// break there would otherwise surface only when the benchmark is run. The
// module has no dependency beyond this one, so vetting it needs no network.
func TestBenchModuleCompiles(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "internal/bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in internal/bench: %v\n%s", err, out)
	}
}
