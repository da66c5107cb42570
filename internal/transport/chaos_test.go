package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// chaosPair wires two chaos-wrapped in-memory endpoints on one fault layer.
func chaosPair(seed int64) (*ChaosNetwork, *ChaosEndpoint, *ChaosEndpoint) {
	mem := NewMemNetwork()
	cn := NewChaosNetwork(seed)
	return cn, cn.Wrap(mem.NextEndpoint()), cn.Wrap(mem.NextEndpoint())
}

// drain pulls every message currently deliverable within the window and
// returns the MsgIDs in arrival order.
func drain(tr Transport, window time.Duration) []uint64 {
	var out []uint64
	deadline := time.After(window)
	for {
		select {
		case msg := <-tr.Recv():
			out = append(out, msg.MsgID)
		case <-deadline:
			return out
		}
	}
}

func TestChaosZeroRuleIsTransparent(t *testing.T) {
	_, a, b := chaosPair(1)
	for i := 1; i <= 50; i++ {
		if err := a.Send(b.Addr(), wire.Message{Type: wire.TPayload, MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := drain(b, 200*time.Millisecond); len(got) != 50 {
		t.Fatalf("fault-free chaos layer delivered %d of 50", len(got))
	}
}

func TestChaosDropIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []uint64 {
		cn, a, b := chaosPair(seed)
		cn.SetDefaultRule(LinkRule{Drop: 0.5})
		for i := 1; i <= 200; i++ {
			if err := a.Send(b.Addr(), wire.Message{Type: wire.TPayload, MsgID: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return drain(b, 200*time.Millisecond)
	}
	first, second := run(7), run(7)
	if len(first) != len(second) {
		t.Fatalf("same seed delivered %d then %d messages", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged at position %d: %d vs %d", i, first[i], second[i])
		}
	}
	if len(first) == 0 || len(first) == 200 {
		t.Fatalf("50%% drop delivered %d of 200", len(first))
	}
	other := run(8)
	same := len(other) == len(first)
	if same {
		for i := range first {
			if other[i] != first[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestChaosPerLinkStreamsAreIndependent(t *testing.T) {
	// The a→b decision sequence must not shift when unrelated c→d traffic
	// interleaves: each link owns its own seeded stream.
	run := func(withNoise bool) []uint64 {
		mem := NewMemNetwork()
		cn := NewChaosNetwork(11)
		a, b := cn.Wrap(mem.NextEndpoint()), cn.Wrap(mem.NextEndpoint())
		c, d := cn.Wrap(mem.NextEndpoint()), cn.Wrap(mem.NextEndpoint())
		cn.SetDefaultRule(LinkRule{Drop: 0.5})
		for i := 1; i <= 100; i++ {
			if withNoise {
				_ = c.Send(d.Addr(), wire.Message{Type: wire.TPayload, MsgID: uint64(1000 + i)})
			}
			if err := a.Send(b.Addr(), wire.Message{Type: wire.TPayload, MsgID: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return drain(b, 200*time.Millisecond)
	}
	quiet, noisy := run(false), run(true)
	if len(quiet) != len(noisy) {
		t.Fatalf("cross-link interference: %d vs %d deliveries", len(quiet), len(noisy))
	}
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("cross-link interference at position %d", i)
		}
	}
}

func TestChaosDropFirst(t *testing.T) {
	cn, a, b := chaosPair(1)
	cn.SetLinkRule(a.Addr(), b.Addr(), LinkRule{DropFirst: 2})
	for i := 1; i <= 3; i++ {
		if err := a.Send(b.Addr(), wire.Message{Type: wire.TPayload, MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(b, 100*time.Millisecond)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("DropFirst=2 delivered %v", got)
	}
	if st := cn.Stats(); st.RuleDrops != 2 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ds := a.DropStats(); ds.FabricDrops != 2 {
		t.Fatalf("endpoint drop stats = %+v", ds)
	}
}

func TestChaosPartitionAndHeal(t *testing.T) {
	mem := NewMemNetwork()
	cn := NewChaosNetwork(1)
	a := cn.Wrap(mem.NextEndpoint())
	b := cn.Wrap(mem.NextEndpoint())
	c := cn.Wrap(mem.NextEndpoint())
	cn.Partition(a.Addr(), b.Addr())

	// Across the boundary: blocked in both directions.
	_ = a.Send(c.Addr(), wire.Message{MsgID: 1})
	_ = c.Send(a.Addr(), wire.Message{MsgID: 2})
	if got := drain(c, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("partitioned a→c delivered %v", got)
	}
	if got := drain(a, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("partitioned c→a delivered %v", got)
	}
	// Within the island: unaffected.
	if err := a.Send(b.Addr(), wire.Message{MsgID: 3}); err != nil {
		t.Fatal(err)
	}
	if got := drain(b, 100*time.Millisecond); len(got) != 1 || got[0] != 3 {
		t.Fatalf("island-internal traffic got %v", got)
	}
	if st := cn.Stats(); st.PartitionDrops != 2 {
		t.Fatalf("stats = %+v", st)
	}

	cn.Heal()
	if err := a.Send(c.Addr(), wire.Message{MsgID: 4}); err != nil {
		t.Fatal(err)
	}
	if got := drain(c, 100*time.Millisecond); len(got) != 1 || got[0] != 4 {
		t.Fatalf("post-heal traffic got %v", got)
	}
}

func TestChaosCrashAndRevive(t *testing.T) {
	cn, a, b := chaosPair(1)
	cn.Crash(b.Addr())
	_ = a.Send(b.Addr(), wire.Message{MsgID: 1})
	_ = b.Send(a.Addr(), wire.Message{MsgID: 2})
	if got := drain(b, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("crashed endpoint received %v", got)
	}
	if got := drain(a, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("crashed endpoint sent %v", got)
	}
	if st := cn.Stats(); st.CrashDrops != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChaosDuplicateAndDelay(t *testing.T) {
	cn, a, b := chaosPair(1)
	cn.SetDefaultRule(LinkRule{Duplicate: 1.0, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := a.Send(b.Addr(), wire.Message{MsgID: 9}); err != nil {
		t.Fatal(err)
	}
	got := drain(b, 300*time.Millisecond)
	if len(got) != 2 || got[0] != 9 || got[1] != 9 {
		t.Fatalf("duplicate rule delivered %v", got)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delay rule delivered in %v", elapsed)
	}
	if st := cn.Stats(); st.Duplicates != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ds := a.DropStats(); ds.Duplicates != 1 {
		t.Fatalf("endpoint stats = %+v", ds)
	}
}

func TestChaosReorderHoldsMessagesBack(t *testing.T) {
	cn, a, b := chaosPair(1)
	cn.SetLinkRule(a.Addr(), b.Addr(),
		LinkRule{Reorder: 1.0, ReorderDelay: 40 * time.Millisecond})
	start := time.Now()
	if err := a.Send(b.Addr(), wire.Message{MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	got := drain(b, 400*time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("reorder rule delivered %v", got)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("held-back message arrived in %v", elapsed)
	}
	if st := cn.Stats(); st.Reordered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChaosScheduleAndDescribe(t *testing.T) {
	cn, a, b := chaosPair(1)
	// Events must play sorted by offset regardless of slice order.
	events := []FaultEvent{
		HealAt(80 * time.Millisecond),
		PartitionAt(0, b.Addr()),
	}
	cn.PlaySchedule(events)
	time.Sleep(20 * time.Millisecond)
	_ = a.Send(b.Addr(), wire.Message{MsgID: 1})
	if got := drain(b, 30*time.Millisecond); len(got) != 0 {
		t.Fatalf("mid-crash delivery %v", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_ = a.Send(b.Addr(), wire.Message{MsgID: 2})
		if got := drain(b, 30*time.Millisecond); len(got) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heal event never took effect")
		}
	}
}

// TestChaosPicksClockInOnePlace: the chaos layer's fault schedule and link
// delays reach a clock only through after, which takes the wrapped
// endpoints' virtual clock when they have one. The slow-peer pipe, which
// only transport tests use, is the one other reader of the wall clock.
func TestChaosPicksClockInOnePlace(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "chaos.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{"after": "AfterFunc", "occupy": "Now"}
	wallClock := map[string]bool{"Now": true, "Since": true, "Until": true, "AfterFunc": true, "Sleep": true,
		"NewTimer": true, "NewTicker": true, "After": true, "Tick": true}
	for _, decl := range f.Decls {
		fname := ""
		if fn, ok := decl.(*ast.FuncDecl); ok {
			fname = fn.Name.Name
		}
		ast.Inspect(decl, func(nd ast.Node) bool {
			sel, ok := nd.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && wallClock[sel.Sel.Name] && allowed[fname] != sel.Sel.Name {
				t.Errorf("%s: %s uses the wall clock (time.%s); go through after", fset.Position(sel.Pos()), fname, sel.Sel.Name)
			}
			return true
		})
	}
}

func TestMemNetworkDropStatsCounters(t *testing.T) {
	n := NewMemNetwork()
	a := n.NextEndpoint()
	b := n.NextEndpoint()
	// Inbox sheds: overflow the 1024-slot inbox without receiving.
	for i := 0; i < 1200; i++ {
		if err := a.Send(b.Addr(), wire.Message{MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if ds := b.DropStats(); ds.InboxSheds == 0 {
		t.Fatalf("no sheds recorded after overflow: %+v", ds)
	}
}
