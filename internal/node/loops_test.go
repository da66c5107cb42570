package node

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupcast/internal/reliable"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// TestIdleNodeGoroutines pins the node's goroutine budget: a started, idle
// node with heartbeats on runs its event loop and its transport's inbox pump,
// nothing else. Every periodic duty shares the loop.
func TestIdleNodeGoroutines(t *testing.T) {
	baseline := settledGoroutines()
	net := transport.NewMemNetwork()
	cfg := DefaultConfig(10, nil, 1)
	cfg.HeartbeatInterval = 100 * time.Millisecond
	n := New(net.NextEndpoint(), cfg)
	n.Start()
	// Several epochs, and with them NACK sweeps and pressure samples.
	waitFor(t, testTimeout, func() bool { return n.epochNow.Load() >= 3 }, static("no epochs ran"))
	// Loop and pump only: no flow the loop starts gets a goroutine.
	waitGoroutines(t, baseline+2, 2*time.Second)
	if got := runtime.NumGoroutine() - baseline; got < 2 {
		t.Fatalf("idle node added %d goroutines, want 2 (loop + inbox pump)", got)
	}
	_ = n.Close()
	waitGoroutines(t, baseline, 2*time.Second)
}

// TestHandlerContractSerial pins the PayloadHandler contract across all four
// release paths — a live arrival, a digest forcing a held payload out, a
// NACK-sweep abandonment, and a succession promotion: no handler call ever
// overlaps another. Run with -race.
func TestHandlerContractSerial(t *testing.T) {
	net := transport.NewMemNetwork()
	cfg := DefaultConfig(10, nil, 1)
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.ReliableWindow = 8
	cfg.DisableDHT = true
	n := New(net.NextEndpoint(), cfg)
	// peer relays src's stream to n and never answers anything.
	peer := net.NextEndpoint()
	defer peer.Close()
	src := wire.PeerInfo{Addr: "src"}
	const live = 200

	var inFlight, overlaps atomic.Int32
	var mu sync.Mutex
	calls := make(map[string]int)
	n.SetPayloadHandler(func(gid string, _ wire.PeerInfo, _ []byte) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(100 * time.Microsecond) // widen any overlap
		mu.Lock()
		calls[gid]++
		mu.Unlock()
		inFlight.Add(-1)
	})

	// Each timer- or control-driven path gets its own group whose window
	// already holds seq 3 behind a gap at 2: a payload only that path can
	// release. n roots the groups src publishes into; "promo" hangs under
	// peer and n is its first deputy, with the root silent for an hour.
	past := time.Now().Add(-time.Minute)
	n.mu.Lock()
	for _, gid := range []string{"live", "digest", "sweep", "promo"} {
		gs := newGroupState(wire.ReliableOrdered)
		gs.member = true
		gs.rendezvous = gid != "promo"
		n.groups[gid] = gs
		if gid == "live" {
			continue
		}
		w := n.windowFor(gs, src)
		var res reliable.ObserveResult
		w.ObserveItem(1, reliable.Item{Data: []byte("p1")}, past, &res)
		w.ObserveItem(3, reliable.Item{Data: []byte("p3")}, past, &res)
		if gid == "sweep" {
			// Spend every NACK attempt on gap 2: the loop's next sweep
			// abandons it and releases seq 3.
			for i := 0; i < reliable.DefaultNackMaxAttempts; i++ {
				w.DueGaps(past.Add(time.Duration(i)*time.Second), reliable.NackPolicy{}, &res)
			}
		}
	}
	promo := n.groups["promo"]
	promo.parent = peer.Addr()
	promo.lastRoot = time.Now().Add(-time.Hour)
	promo.charter = wire.Charter{
		GroupID: "promo", Mode: wire.ReliableOrdered, Epoch: 1,
		Deputies:  []wire.PeerInfo{n.self},
		HighWater: []wire.DigestEntry{{Source: src.Addr, High: 11}},
	}
	n.mu.Unlock()

	n.Start()
	defer n.Close()
	for seq := uint64(1); seq <= live; seq++ {
		_ = peer.Send(n.Addr(), wire.Message{
			Type: wire.TPayload, From: src, Relay: wire.PeerInfo{Addr: peer.Addr()},
			GroupID: "live", Seq: seq, Mode: wire.ReliableOrdered, Data: []byte("x"),
		})
		if seq == live/2 {
			// The window span is 8: a high of 11 slides seq 3 out.
			_ = peer.Send(n.Addr(), wire.Message{
				Type: wire.TDigest, From: wire.PeerInfo{Addr: peer.Addr()}, GroupID: "digest",
				Mode: wire.ReliableOrdered, Digest: []wire.DigestEntry{{Source: src.Addr, High: 11}},
			})
		}
		time.Sleep(time.Millisecond)
	}

	want := map[string]int{"live": live, "digest": 1, "sweep": 1, "promo": 1}
	waitFor(t, testTimeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for gid, c := range want {
			if calls[gid] != c {
				return false
			}
		}
		return true
	}, func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("handler calls per release path = %v, want %v", calls, want)
	})
	if got := n.Stats().Promotions; got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	if got := overlaps.Load(); got != 0 {
		t.Fatalf("%d handler calls overlapped another", got)
	}
}

// TestHandlerContractRepublish: a handler may Publish. b re-publishes every
// payload of group "in" into its own group "out" from inside its handler;
// each Publish returns nil without deadlocking b's loop, and c receives the
// re-published stream in order.
func TestHandlerContractRepublish(t *testing.T) {
	mem := transport.NewMemNetwork()
	eps := []transport.Transport{mem.NextEndpoint(), mem.NextEndpoint(), mem.NextEndpoint()}
	nodes := lineCluster(t, eps, nil)
	a, b, c := nodes[0], nodes[1], nodes[2]
	for _, g := range []struct {
		rdv, member *Node
		gid         string
	}{{a, b, "in"}, {b, c, "out"}} {
		if err := g.rdv.CreateGroupMode(g.gid, wire.ReliableOrdered); err != nil {
			t.Fatal(err)
		}
		if err := g.rdv.Advertise(g.gid); err != nil {
			t.Fatal(err)
		}
		waitFor(t, testTimeout, func() bool {
			return g.member.Join(g.gid, 200*time.Millisecond) == nil
		}, static("could not join "+g.gid))
	}

	const count = 50
	errs := make(chan error, count)
	b.SetPayloadHandler(func(gid string, _ wire.PeerInfo, data []byte) {
		if gid == "in" {
			errs <- b.Publish("out", data)
		}
	})
	rec := recordPayloads(c)

	// API readers hammer every node while the stream flows and epochs run:
	// each call waits at most one loop event for n.mu, and the registry
	// snapshot runs the locking gauges against the loop's history sample.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, nd := range nodes {
					_ = nd.Tree("in")
					_ = nd.Neighbors()
					_ = nd.Reliability("out")
					_ = nd.TreeDetails()
					_ = nd.OverlayView()
					_ = nd.ClusterView()
					_ = nd.Metrics().Snapshot()
				}
			}
		}()
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()
	startEpoch := b.epochNow.Load()

	for i := 0; i < count; i++ {
		if err := a.Publish("in", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("Publish from the handler: %v", err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("handler re-published %d of %d payloads: b's loop is stuck", i, count)
		}
	}
	waitFor(t, testTimeout, func() bool {
		return rec.count(b.Addr()) >= count
	}, func() string {
		return fmt.Sprintf("c received %d of %d re-published payloads", rec.count(b.Addr()), count)
	})
	rec.assertFIFO(t, "c", b.Addr(), count)
	// Keep the readers racing b's loop for two heartbeat epochs.
	waitFor(t, testTimeout, func() bool { return b.epochNow.Load() >= startEpoch+2 },
		static("b's loop ran no epochs under the readers"))
}

// TestHandlerContractLeave: a handler may Leave. c leaves the group from
// inside its handler on the k-th payload; Leave returns nil, c's loop keeps
// running, c forgets the group and its tree parent drops it as a child.
func TestHandlerContractLeave(t *testing.T) {
	mem := transport.NewMemNetwork()
	eps := []transport.Transport{mem.NextEndpoint(), mem.NextEndpoint(), mem.NextEndpoint()}
	nodes := lineCluster(t, eps, nil)
	a, c := nodes[0], nodes[2]
	if err := a.CreateGroupMode("g", wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := a.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	for _, m := range nodes[1:] {
		waitFor(t, testTimeout, func() bool {
			return m.Join("g", 200*time.Millisecond) == nil
		}, static("could not join g"))
	}
	var parent *Node
	for _, nd := range nodes {
		if nd.Addr() == c.Tree("g").Parent {
			parent = nd
		}
	}
	if parent == nil {
		t.Fatalf("c's parent %q is not in the cluster", c.Tree("g").Parent)
	}

	const k = 5
	var got atomic.Int32
	left := make(chan error, 1)
	c.SetPayloadHandler(func(gid string, _ wire.PeerInfo, _ []byte) {
		if got.Add(1) == k {
			left <- c.Leave(gid)
		}
	})
	for i := 0; i < 2*k; i++ {
		if err := a.Publish("g", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-left:
		if err != nil {
			t.Fatalf("Leave from the handler: %v", err)
		}
	case <-time.After(testTimeout):
		t.Fatalf("c's handler ran %d of %d times: its loop is stuck", got.Load(), k)
	}
	if c.Tree("g").Exists {
		t.Fatal("c still holds the group after Leave")
	}
	waitFor(t, testTimeout, func() bool {
		for _, child := range parent.Tree("g").Children {
			if child == c.Addr() {
				return false
			}
		}
		return true
	}, func() string {
		return fmt.Sprintf("parent %s still lists c: %v", parent.Addr(), parent.Tree("g").Children)
	})
	epoch := c.epochNow.Load()
	waitFor(t, testTimeout, func() bool { return c.epochNow.Load() > epoch },
		static("c's loop stopped after the handler's Leave"))
}

// TestNodeLocksOnlyAtAPIBoundary pins the one locking rule of the package:
// the loop takes n.mu once per event (run), exported *Node methods take it
// at the API boundary, and only two readers besides — the registry gauges
// (closures in initObservability) and the state-save capture — take it too.
// Everything else runs on the loop under the event's lock and never locks,
// so no *Locked twin exists and no other mutex guards node state.
func TestNodeLocksOnlyAtAPIBoundary(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	lockedCall := regexp.MustCompile(`\w+Locked\(`)
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lockedCall.FindAllString(string(src), -1) {
			t.Errorf("%s: %s: locking is the caller's business only at the API boundary", name, m)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			spec, ok := nd.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := spec.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					sel, ok := field.Type.(*ast.SelectorExpr)
					if ok && strings.HasSuffix(sel.Sel.Name, "Mutex") &&
						(spec.Name.Name != "Node" || len(field.Names) != 1 || field.Names[0].Name != "mu") {
						t.Errorf("%s: %s.%s: a second mutex in the node", fset.Position(field.Pos()), spec.Name.Name, sel.Sel.Name)
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			api := fn.Recv != nil && fn.Name.IsExported() && isNodeReceiver(fn.Recv)
			allowed := api || fn.Name.Name == "run" || fn.Name.Name == "captureState"
			gauges := fn.Name.Name == "initObservability"
			ast.Inspect(fn.Body, func(nd ast.Node) bool {
				if _, ok := nd.(*ast.FuncLit); ok && gauges {
					return false // a gauge closure: a reader like any API call
				}
				if call, ok := nd.(*ast.CallExpr); ok && isMuLock(call) && !allowed {
					t.Errorf("%s: %s locks n.mu off the API boundary", fset.Position(call.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
}

func isNodeReceiver(recv *ast.FieldList) bool {
	star, ok := recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Node"
}

// isMuLock matches x.mu.Lock().
func isMuLock(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Lock" {
		return false
	}
	mu, ok := sel.X.(*ast.SelectorExpr)
	return ok && mu.Sel.Name == "mu"
}
