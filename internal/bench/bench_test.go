package bench

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

func TestQuantileIsNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.99, 50}, {1, 50},
	} {
		if got := quantileNs(sorted, tc.q); got != tc.want {
			t.Errorf("quantileNs(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantileNs(nil, 0.5)) || !math.IsNaN(Median(nil)) {
		t.Error("an empty sample must read NaN, not a number")
	}
	if got := quantileNs([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99); got != 10 {
		t.Errorf("quantileNs p99 of 1..10 = %v, want 10", got)
	}
}

func TestMedianOfRoundsIgnoresOneNoisyRound(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	rounds := make([]PhaseResult, Rounds)
	for i := range rounds {
		rounds[i] = PhaseResult{Latencies: []int64{40_000, 41_000, 42_000}}
	}
	rounds[3].Latencies = []int64{900_000, 900_000, 900_000} // the shared box hiccuped
	if got := overRounds(rounds, quantileUs(0.5)); got != 41 {
		t.Errorf("median over rounds = %v us, want 41", got)
	}
}

// handTrace is one publish from src whose blocking path is src→…→last. Every
// hop takes: send 3, transit 10, handler 2, relay gap 4; Publish itself starts
// 1 before its send and returns 5 after it.
func handTrace(src, last int) []Span {
	path := treePath(src, last)
	var spans []Span
	t := int64(100)
	spans = append(spans, Span{Pub: 7, Kind: SpanPublish, Node: uint8(src), Start: t, End: t + 1 + 3 + 5, Cause: -1})
	t++
	for i := 0; i+1 < len(path); i++ {
		u, v := uint8(path[i]), uint8(path[i+1])
		spans = append(spans, Span{Pub: 7, Kind: SpanSend, Node: u, Peer: v, Start: t, End: t + 3, Cause: -1})
		t += 3 + 10
		spans = append(spans, Span{Pub: 7, Kind: SpanHandler, Node: v, Start: t, End: t + 2, Cause: -1})
		t += 2 + 4
	}
	// An off-path sibling send overlapping the source's on-path send, and an
	// early off-path delivery: neither may change the breakdown.
	spans = append(spans,
		Span{Pub: 7, Kind: SpanSend, Node: uint8(src), Peer: 14, Start: 101, End: 103, Cause: -1},
		Span{Pub: 7, Kind: SpanHandler, Node: 14, Start: 105, End: 106, Cause: -1})
	return spans
}

func TestSpanSelfTimeAndTilingOnHandMadeTrace(t *testing.T) {
	for _, tc := range []struct {
		name      string
		src, last int
		hops      float64
	}{
		{"root to leaf", 0, 12, 3},
		{"leaf climbs over the root to a leaf", 8, 13, 6},
	} {
		spans := handTrace(tc.src, tc.last)
		b, err := AnalyzePublish(spans)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := PathBreakdown{
			Fanout:      1 + tc.hops*(3+10+2) + (tc.hops-1)*4,
			PublishSelf: 1 + 5, // 9 long, minus the 3 its sends cover (the 2-long sibling overlaps)
			Send:        3 * tc.hops,
			HopTransit:  10 * tc.hops,
			Handler:     2 * tc.hops,
			RelaySelf:   4 * (tc.hops - 1),
		}
		if b != want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, b, want)
		}
		// The parts overshoot the fan-out by exactly Publish's 5-long tail.
		if got, want := b.Residual(), 5/want.Fanout; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: residual %v, want %v", tc.name, got, want)
		}
		// Cause links: the first send hangs off the publish, the first
		// handler off that send.
		if spans[1].Cause != 0 || spans[2].Cause != 1 {
			t.Errorf("%s: causes %d,%d, want 0,1", tc.name, spans[1].Cause, spans[2].Cause)
		}
	}

	spans := handTrace(0, 12)
	var gapped []Span
	for _, s := range spans {
		if !(s.Kind == SpanSend && s.Node == 2) { // drop the relay send 2→5
			gapped = append(gapped, s)
		}
	}
	if _, err := AnalyzePublish(gapped); err == nil {
		t.Error("a missing span on the blocking path must not tile")
	}
}

func TestTreePath(t *testing.T) {
	for _, tc := range []struct {
		a, b int
		want []int
	}{
		{0, 0, []int{0}},
		{0, 14, []int{0, 2, 6, 14}},
		{7, 8, []int{7, 3, 8}},
		{9, 2, []int{9, 4, 1, 0, 2}},
	} {
		got := treePath(tc.a, tc.b)
		if len(got) != len(tc.want) {
			t.Fatalf("treePath(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("treePath(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		}
	}
}

func TestPinnedBuilderGivesTheExactTreeOnMem(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w, _ := WorkloadByName("mem_tree_be")
	for _, seed := range []int64{1, 2} {
		c, err := BuildCluster(w, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range c.Nodes {
			tv := n.Tree(groupID)
			wantParent := ""
			if i > 0 {
				wantParent = c.Addrs[(i-1)/2]
			}
			if tv.Parent != wantParent {
				t.Errorf("seed %d: node %d parent %q, want %q", seed, i, tv.Parent, wantParent)
			}
			var wantChildren []string
			for _, ch := range []int{2*i + 1, 2*i + 2} {
				if ch < NumNodes {
					wantChildren = append(wantChildren, c.Addrs[ch])
				}
			}
			sort.Strings(wantChildren)
			if len(tv.Children) != len(wantChildren) {
				t.Fatalf("seed %d: node %d children %v, want %v", seed, i, tv.Children, wantChildren)
			}
			for j := range wantChildren {
				if tv.Children[j] != wantChildren[j] {
					t.Errorf("seed %d: node %d children %v, want %v", seed, i, tv.Children, wantChildren)
				}
			}
		}
		if len(c.JoinTimes) != NumNodes-1 || len(c.BootstrapTimes) != NumNodes-1 {
			t.Errorf("seed %d: %d join and %d bootstrap samples, want %d each",
				seed, len(c.JoinTimes), len(c.BootstrapTimes), NumNodes-1)
		}
		c.Close()
	}
	if leaked := leakedGoroutines(baseline); leaked != 0 {
		t.Errorf("%d goroutines outlived the closed clusters", leaked)
	}
}

func TestTracedTransportForwardsEveryOptionalInterface(t *testing.T) {
	tcpA, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcpA.Close()
	net := transport.NewMemNetwork()
	memA, memB := net.NextEndpoint(), net.NextEndpoint()
	defer memA.Close()
	defer memB.Close()

	rec := NewRecorder()
	for name, inner := range map[string]transport.Transport{"tcp": tcpA, "mem": memA} {
		tr := rec.Wrap(3, inner, map[string]int{memB.Addr(): 9})
		if tr.Addr() != inner.Addr() {
			t.Errorf("%s: Addr not forwarded", name)
		}
		if _, ok := tr.(transport.MultiSender); !ok {
			t.Errorf("%s: wrapper hides MultiSender", name)
		}
		qr, ok := tr.(transport.QueueReporter)
		if !ok || qr.QueueCapacity() != inner.(transport.QueueReporter).QueueCapacity() {
			t.Errorf("%s: QueueReporter not forwarded", name)
		}
		if _, ok := tr.(transport.DropCounter); !ok {
			t.Errorf("%s: wrapper hides DropCounter", name)
		}
		if _, ok := tr.(transport.BreakerReporter); !ok {
			t.Errorf("%s: wrapper hides BreakerReporter", name)
		}
		if _, ok := tr.(interface{ OutboundQueueDepth() int }); !ok {
			t.Errorf("%s: wrapper hides OutboundQueueDepth", name)
		}
		iq, ok := tr.(interface{ InboxQueue() *transport.PrioInbox })
		if !ok || iq.InboxQueue() != inner.(interface{ InboxQueue() *transport.PrioInbox }).InboxQueue() {
			t.Errorf("%s: InboxQueue not forwarded", name)
		}
	}

	// Payload sends are recorded, per link; other traffic is not.
	tr := rec.Wrap(3, memA, map[string]int{memB.Addr(): 9})
	payload := wire.Message{Type: wire.TPayload, Data: make([]byte, payloadHeader)}
	payload.Data[0] = 42
	if err := tr.Send(memB.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(memB.Addr(), wire.Message{Type: wire.THeartbeat}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	tr.(transport.MultiSender).SendMany([]string{memB.Addr(), memB.Addr()}, payload, func(string, error) { calls++ })
	spans := rec.ByPublish()[42]
	if len(spans) != 3 || calls != 2 {
		t.Fatalf("%d spans and %d callbacks, want 3 and 2", len(spans), calls)
	}
	for _, s := range spans {
		if s.Kind != SpanSend || s.Node != 3 || s.Peer != 9 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	for i := 0; i < 4; i++ { // three payloads and the heartbeat arrived
		select {
		case <-memB.Recv():
		case <-time.After(2 * time.Second):
			t.Fatal("forwarded message did not arrive")
		}
	}
}

// TestQuickRunNamesMatchBenchmarkJSON runs the whole command path briefly,
// untraced and traced, and holds its output to the names and units that
// BENCHMARK.json declares.
func TestQuickRunNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, Workloads[i].Name)
		}
	}
	for _, tc := range []struct {
		trace    bool
		declared []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := Run(Options{Workload: "mem_tree_be", Seed: 11, Seconds: 1, Setups: 1, Trace: tc.trace})
		if err != nil {
			t.Fatalf("trace=%v: %v", tc.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.declared) {
			t.Errorf("trace=%v: %d metrics printed, %d declared", tc.trace, len(res.Metrics), len(tc.declared))
		}
		for _, m := range tc.declared {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s [%s] declared, got %+v (present=%v)", tc.trace, m.Name, m.Unit, got, ok)
			}
		}
		if tc.trace {
			if r := res.Metrics["trace.residual_ratio"].Value; r > 0.05 {
				t.Errorf("trace.residual_ratio = %v, want ≤ 0.05", r)
			}
		}
	}
}
