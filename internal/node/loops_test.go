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
	// peer and n is its first deputy, with the root silent for an hour. A
	// high-water mark of slide moves the window past seq 3.
	const slide = reliable.DefaultWindowSpan + 3
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
		HighWater: []wire.DigestEntry{{Source: src.Addr, High: slide}},
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
			_ = peer.Send(n.Addr(), wire.Message{
				Type: wire.TDigest, From: wire.PeerInfo{Addr: peer.Addr()}, GroupID: "digest",
				Mode: wire.ReliableOrdered, Digest: []wire.DigestEntry{{Source: src.Addr, High: slide}},
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
// n.mu is taken only inside lock, which stamps the section's time, and lock
// is called once per loop event (run), by exported *Node methods at the API
// boundary, and by two readers besides — the registry gauges (closures in
// initObservability) and the state-save capture. Everything else runs on
// the loop under the event's lock and never locks, so no *Locked twin
// exists and no other mutex guards node state.
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
				call, ok := nd.(*ast.CallExpr)
				switch {
				case !ok:
				case isMuLock(call) && fn.Name.Name != "lock":
					t.Errorf("%s: %s takes n.mu without lock's stamp", fset.Position(call.Pos()), fn.Name.Name)
				case isNodeLock(call) && !allowed:
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

// isNodeLock matches x.lock().
func isNodeLock(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "lock" && len(call.Args) == 0
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

// stepAt runs ev on n as one loop event at time now, the way run does with
// a wall-clock stamp: lock, step, endEvent.
func stepAt(n *Node, now time.Time, ev event) {
	n.mu.Lock()
	n.step(now, ev)
	n.endEvent()
}

// sendLog is a transport that records every message the node sends, in
// order, and delivers none.
type sendLog struct {
	transport.Transport
	sent []sentMsg
}

type sentMsg struct {
	to  string
	msg wire.Message
}

func (l *sendLog) Send(addr string, msg wire.Message) error {
	l.sent = append(l.sent, sentMsg{addr, msg})
	return nil
}

// count reports how many messages of type typ went to addr.
func (l *sendLog) count(addr string, typ wire.Type) int {
	c := 0
	for _, s := range l.sent {
		if s.to == addr && s.msg.Type == typ {
			c++
		}
	}
	return c
}

// TestNodeReadsClockOncePerEvent pins the node's one clock: a critical
// section reads the wall clock once, when lock stamps n.now, and every timed
// rule reads the stamp. Besides lock, only endEvent (a publish→deliver age
// ends at the hand-off) and traceNow (the tracer's durations) read it. The
// loop timer is set only by the call table's arm.
func TestNodeReadsClockOncePerEvent(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"lock": true, "endEvent": true, "traceNow": true}
	reads := 0
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
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
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" &&
					(sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until") {
					reads++
					if !allowed[fname] {
						t.Errorf("%s: %s reads the clock (time.%s); use n.now", fset.Position(sel.Pos()), fname, sel.Sel.Name)
					}
				}
				if x, ok := sel.X.(*ast.SelectorExpr); ok && x.Sel.Name == "timer" && sel.Sel.Name == "Reset" && fname != "arm" {
					t.Errorf("%s: %s sets the loop timer; only the call table arms it", fset.Position(sel.Pos()), fname)
				}
				return true
			})
		}
	}
	if reads > 3 {
		t.Errorf("%d wall-clock reads in the package, want at most 3", reads)
	}
}

// TestRefreshSameSeedSameFrames: a refresh walks the groups in sorted order,
// so one seed gives one flood. Each advertise takes a MsgID and draws its
// targets from the seeded rng; in map order, which group got which ID and
// which neighbours changed from run to run.
func TestRefreshSameSeedSameFrames(t *testing.T) {
	build := func() map[string][]string {
		log := &sendLog{Transport: transport.NewMemNetwork().NextEndpoint()}
		n := New(log, DefaultConfig(10, nil, 7))
		defer n.Close()
		stepAt(n, time.Now(), event{flow: func() {
			for i := 0; i < 6; i++ {
				n.addNeighbor(wire.PeerInfo{
					Addr: fmt.Sprintf("nb-%d", i), Capacity: float64(1 + i%3),
					Coord: []float64{float64(i), float64(i % 2), 0},
				})
			}
			for _, gid := range []string{"g1", "g2", "g3", "g4"} {
				gs := newGroupState(wire.BestEffort)
				gs.rendezvous, gs.member = true, true
				gs.rdvInfo, gs.epoch = n.self, 1
				n.groups[gid] = gs
			}
			n.refreshAdvertisements()
			n.refreshAdvertisements()
		}})
		frames := make(map[string][]string)
		for _, s := range log.sent {
			frames[s.to] = append(frames[s.to], fmt.Sprintf("%s#%d", s.msg.GroupID, s.msg.MsgID))
		}
		return frames
	}
	want := build()
	if len(want) == 0 {
		t.Fatal("the refresh sent nothing")
	}
	for run := 1; run <= 20; run++ {
		if got := build(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d sent other frames:\n got %v\nwant %v", run, got, want)
		}
	}
}

// TestEpochDutiesStepped drives the heartbeat epoch through synthetic times
// on a node it never starts: no sleeps, no real timer. Neighbour a is the
// parent of group g and falls silent; b is g's backup access point and
// acks heartbeats until the end. With hb one minute the death grace is
// (MissedHeartbeatsToFail+1)·hb = 3 hb.
func TestEpochDutiesStepped(t *testing.T) {
	const hb = time.Minute
	log := &sendLog{Transport: transport.NewMemNetwork().NextEndpoint()}
	cfg := DefaultConfig(10, nil, 1)
	cfg.HeartbeatInterval = hb
	cfg.DisableDHT = true
	n := New(log, cfg)
	defer n.Close()
	a := wire.PeerInfo{Addr: "a", Capacity: 10, Coord: []float64{1, 0, 0}}
	b := wire.PeerInfo{Addr: "b", Capacity: 10, Coord: []float64{0, 1, 0}}
	t0 := time.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	wake := func(d time.Duration) { stepAt(n, at(d), event{}) }
	ackFromB := func(d time.Duration) {
		stepAt(n, at(d), event{msg: &wire.Message{Type: wire.THeartbeatAck, From: b}})
	}
	stepAt(n, t0, event{flow: func() {
		n.begin()
		n.addNeighbor(a)
		n.addNeighbor(b)
		gs := newGroupState(wire.BestEffort)
		gs.member = true
		gs.parent, gs.parentInfo = a.Addr, a
		gs.backups = []wire.PeerInfo{b}
		gs.lastBeacon = n.now
		n.groups["g"] = gs
	}})
	neighbor := func(addr string) *neighborState { return n.neighbors[addr] }

	wake(hb) // epoch 1: both answered within the slack
	ackFromB(hb)
	if got := log.count("a", wire.THeartbeat); got != 1 {
		t.Fatalf("epoch 1 sent %d heartbeats to a, want 1", got)
	}
	if neighbor("a").suspect {
		t.Fatal("a suspect after one epoch of silence")
	}

	wake(2 * hb) // epoch 2: a silent 2 hb > 1.5 hb
	ackFromB(2 * hb)
	if !neighbor("a").suspect || neighbor("b").suspect {
		t.Fatalf("after 2 hb: a suspect %v, b suspect %v; want true, false",
			neighbor("a").suspect, neighbor("b").suspect)
	}
	if got := n.Stats().Suspected; got != 1 {
		t.Fatalf("Suspected = %d, want 1", got)
	}

	// The reprobe is due hb/2 after the epoch that raised the suspicion.
	wake(2*hb + hb/2 - time.Millisecond)
	if got := log.count("a", wire.THeartbeat); got != 2 {
		t.Fatalf("%d heartbeats to a before the reprobe is due, want 2", got)
	}
	wake(2*hb + hb/2)
	if got := log.count("a", wire.THeartbeat); got != 3 {
		t.Fatalf("%d heartbeats to a after the reprobe, want 3", got)
	}

	wake(3 * hb) // epoch 3: a silent exactly the grace, not past it
	ackFromB(3 * hb)
	if neighbor("a") == nil {
		t.Fatal("a declared dead at exactly the grace")
	}

	wake(4 * hb) // epoch 4: a silent 4 hb > 3 hb: dead, g orphaned
	if neighbor("a") != nil || n.Stats().NeighborsDeclaredDead != 1 {
		t.Fatalf("after 4 hb: a still a neighbour (%v) or dead count %d, want gone and 1",
			neighbor("a") != nil, n.Stats().NeighborsDeclaredDead)
	}
	var join wire.Message
	for _, s := range log.sent {
		if s.to == "b" && s.msg.Type == wire.TJoin && s.msg.GroupID == "g" {
			join = s.msg
		}
	}
	if join.ReqID == 0 {
		t.Fatal("orphaned g sent no join to its backup b")
	}
	stepAt(n, at(4*hb+10*time.Millisecond), event{msg: &wire.Message{
		Type: wire.TJoinAck, From: b, GroupID: "g", ReqID: join.ReqID, Path: []string{"r", "b"},
	}})
	if tv := n.Tree("g"); tv.Parent != "b" || n.Stats().RepairsViaBackup != 1 {
		t.Fatalf("g after b's ack: parent %q, repairs via backup %d; want b, 1",
			tv.Parent, n.Stats().RepairsViaBackup)
	}

	// b's last ack was at 3 hb. A wake 3 hb after the previous epoch is a
	// stalled loop: the epoch runs but evicts nobody, though b is past the
	// grace. The next, regular epoch does.
	wake(7 * hb)
	if neighbor("b") == nil || n.Stats().NeighborsDeclaredDead != 1 {
		t.Fatalf("stalled epoch evicted b (dead count %d)", n.Stats().NeighborsDeclaredDead)
	}
	if n.epochNow.Load() != 5 {
		t.Fatalf("epochs = %d after the stalled wake, want 5", n.epochNow.Load())
	}
	wake(8 * hb)
	if neighbor("b") != nil || n.Stats().NeighborsDeclaredDead != 2 {
		t.Fatalf("regular epoch after the stall kept b (dead count %d)", n.Stats().NeighborsDeclaredDead)
	}
}
