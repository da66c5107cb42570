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

	"groupcast/internal/dht"
	"groupcast/internal/reliable"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// TestIdleNodeGoroutines pins the node's goroutine budget: a started, idle
// node with heartbeats on and no handler runs its event loop, nothing else.
// The loop drains the inbox itself, and every periodic duty shares it.
func TestIdleNodeGoroutines(t *testing.T) {
	baseline := settledGoroutines()
	net := transport.NewMemNetwork()
	cfg := DefaultConfig(10, nil, 1)
	cfg.HeartbeatInterval = 100 * time.Millisecond
	n := New(net.NextEndpoint(), cfg)
	n.Start()
	// Several epochs, and with them NACK sweeps and pressure samples.
	waitFor(t, testTimeout, func() bool { return n.epochNow.Load() >= 3 }, static("no epochs ran"))
	// The loop only: no flow the loop starts gets a goroutine.
	waitGoroutines(t, baseline+1, 2*time.Second)
	if got := runtime.NumGoroutine() - baseline; got < 1 {
		t.Fatalf("idle node added %d goroutines, want 1 (the loop)", got)
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
	nodes := lineCluster(t, 3, newLive(t, 0, 1, nil).add, nil)
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
		if err := g.member.Join(g.gid, testTimeout); err != nil {
			t.Fatal(err)
		}
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
	// each call is one loop event, and the registry snapshot reads the
	// gauges on the loop that takes the history sample.
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
					_ = nd.reliability("out")
					_ = nd.TreeDetails()
					_ = nd.OverlayView()
					_ = nd.ClusterView()
					_ = nd.MetricsSnapshot()
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
	nodes := lineCluster(t, 3, newLive(t, 0, 1, nil).add, nil)
	a, c := nodes[0], nodes[2]
	if err := a.CreateGroupMode("g", wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := a.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	for _, m := range nodes[1:] {
		if err := m.Join("g", testTimeout); err != nil {
			t.Fatal(err)
		}
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

// TestJoinFromHandler: a handler may Join. b joins group "second" from
// inside its handler for "first"; the Join returns nil within its timeout,
// as the handler does not run on the loop the Join waits for.
func TestJoinFromHandler(t *testing.T) {
	nodes := lineCluster(t, 2, newLive(t, 0, 1, nil).add, nil)
	a, b := nodes[0], nodes[1]
	for _, gid := range []string{"first", "second"} {
		if err := a.CreateGroup(gid); err != nil {
			t.Fatal(err)
		}
		if err := a.Advertise(gid); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Join("first", testTimeout); err != nil {
		t.Fatal(err)
	}

	joined := make(chan error, 1)
	var once sync.Once
	b.SetPayloadHandler(func(gid string, _ wire.PeerInfo, _ []byte) {
		once.Do(func() { joined <- b.Join("second", time.Second) })
	})
	if err := a.Publish("first", []byte("p0")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-joined:
		if err != nil {
			t.Fatalf("Join from the handler: %v", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("Join from the handler never returned")
	}
	if tv := b.Tree("second"); !tv.Member || !tv.Attached {
		t.Fatalf("after the handler's Join: %+v", tv)
	}
}

// TestSlowConsumerKeepsTree: a handler that blocks holds back only its own
// deliveries. On a reliable-ordered 3-node line with 50 ms heartbeats the
// leaf's handler blocks for ten epochs while the root publishes 100
// payloads. The leaf's loop keeps answering heartbeats and relaying
// beacons, so no node declares a neighbour dead, promotes or repairs; once
// the handler returns, the leaf delivers 1..100, each once and in order.
func TestSlowConsumerKeepsTree(t *testing.T) {
	const hb = 50 * time.Millisecond
	nodes := lineCluster(t, 3, newLive(t, 0, 1, nil).add, func(cfg *Config) { cfg.HeartbeatInterval = hb })
	root, leaf := nodes[0], nodes[2]
	if err := root.CreateGroupMode("g", wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := root.Advertise("g"); err != nil {
		t.Fatal(err)
	}
	for _, m := range nodes[1:] {
		if err := m.Join("g", testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, testTimeout, func() bool { return treeSettled(nodes, "g", nodes[1:]) },
		static("the line's tree never settled"))

	var mu sync.Mutex
	var got []int
	leaf.SetPayloadHandler(func(_ string, _ wire.PeerInfo, data []byte) {
		var idx int
		if _, err := fmt.Sscanf(string(data), "p%d", &idx); err != nil {
			return
		}
		if idx == 1 {
			time.Sleep(10 * hb)
		}
		mu.Lock()
		got = append(got, idx)
		mu.Unlock()
	})
	failures := func(nd *Node) [4]uint64 {
		s := nd.Stats()
		return [4]uint64{s.NeighborsDeclaredDead, s.Promotions, s.RepairsViaBackup, s.RepairsViaSearch}
	}
	var before [][4]uint64
	for _, nd := range nodes {
		before = append(before, failures(nd))
	}

	const count = 100
	for i := 1; i <= count; i++ {
		if err := root.Publish("g", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, testTimeout+10*hb, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= count
	}, func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("the leaf delivered %d of %d payloads", len(got), count)
	})
	time.Sleep(2 * hb) // room for a duplicate or a late repair to show
	mu.Lock()
	defer mu.Unlock()
	for i, idx := range got {
		if idx != i+1 {
			t.Fatalf("delivery %d is payload %d (want each of 1..%d once, in order): %v", i, idx, count, got)
		}
	}
	if len(got) != count {
		t.Fatalf("the leaf delivered %d payloads, want %d: %v", len(got), count, got)
	}
	for i, nd := range nodes {
		if after := failures(nd); after != before[i] {
			t.Errorf("node %d's dead/promotions/backup/search repairs moved %v → %v", i, before[i], after)
		}
	}
}

// TestNodeStateOwnedByLoop pins who touches node state: the loop. The one
// mutex in the package is the handler hand-off's, and no *Locked helper
// exists. post and await — the way onto the loop — are called only by
// exported *Node methods; every exported method calls one of them or is
// listed in offLoop with what it reads instead. No other code calls a
// posting method: it runs on the loop, which would wait for itself.
func TestNodeStateOwnedByLoop(t *testing.T) {
	offLoop := map[string]string{
		"Addr":         "self.Addr, fixed at New",
		"Coord":        "Info, which posts",
		"CreateGroup":  "CreateGroupMode, which posts",
		"Stats":        "atomic counters and the transport's and tracer's own",
		"Breakers":     "the transport's snapshot",
		"InboxQueue":   "the inbox, fixed at New",
		"Tracer":       "the tracer, fixed at New",
		"TraceEvents":  "the tracer's ring, which locks itself",
		"RecoveryView": "config, the restore record and an atomic; DhtChurnRate posts",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	lockedCall := regexp.MustCompile(`\w+Locked\(`)
	fset := token.NewFileSet()
	var fns []*ast.FuncDecl
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lockedCall.FindAllString(string(src), -1) {
			t.Errorf("%s: %s: nothing in the node locks", name, m)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fns = append(fns, fn)
			}
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			if spec, ok := nd.(*ast.TypeSpec); ok && spec.Name.Name == "handoff" {
				return false // the hand-off's own mutex
			}
			sel, ok := nd.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" &&
				(sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
				t.Errorf("%s: a sync.%s in the node; its state belongs to the loop", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	api := func(fn *ast.FuncDecl) bool {
		return fn.Recv != nil && fn.Name.IsExported() && isNodeReceiver(fn.Recv)
	}
	// calls reports the n.<name>(…) calls in fn's body.
	calls := func(fn *ast.FuncDecl, each func(name string, pos token.Pos)) {
		ast.Inspect(fn.Body, func(nd ast.Node) bool {
			if call, ok := nd.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "n" {
						each(sel.Sel.Name, call.Pos())
					}
				}
			}
			return true
		})
	}
	posting := map[string]bool{}
	for _, fn := range fns {
		onLoop := false
		calls(fn, func(name string, pos token.Pos) {
			if name != "post" && name != "await" {
				return
			}
			onLoop = true
			if !api(fn) && !(fn.Name.Name == "await" && name == "post") {
				t.Errorf("%s: %s posts; only exported methods reach the loop", fset.Position(pos), fn.Name.Name)
			}
		})
		if !api(fn) {
			continue
		}
		_, listed := offLoop[fn.Name.Name]
		switch {
		case onLoop && listed:
			t.Errorf("%s posts but is listed as off the loop", fn.Name.Name)
		case !onLoop && !listed:
			t.Errorf("%s: exported %s neither posts nor is listed as off the loop", fset.Position(fn.Pos()), fn.Name.Name)
		}
		posting[fn.Name.Name] = onLoop
	}
	for _, fn := range fns {
		if api(fn) {
			continue
		}
		calls(fn, func(name string, pos token.Pos) {
			if posting[name] {
				t.Errorf("%s: %s calls %s, which posts to the loop it may be running on", fset.Position(pos), fn.Name.Name, name)
			}
		})
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

// stepAt runs ev on n as one loop event at time now, the way run does with
// a wall-clock stamp: step, endEvent.
func stepAt(n *Node, now time.Time, ev event) {
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

// TestNodeReadsClockOncePerEvent pins the node's one clock: an event reads
// the wall clock once, when run stamps n.now, and every timed rule reads the
// stamp. Besides run, only deliver (a publish→deliver age ends on the
// handler goroutine) and traceNow (the tracer's durations) read it. The
// loop timer is set only by the call table's arm. The virtual-time driver
// (cluster.go) touches the wall clock not at all: no read, no timer, no
// sleep.
func TestNodeReadsClockOncePerEvent(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"run": true, "deliver": true, "traceNow": true}
	wallClock := map[string]bool{"Now": true, "Since": true, "Until": true, "AfterFunc": true, "Sleep": true,
		"NewTimer": true, "NewTicker": true, "After": true, "Tick": true}
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
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && name == "cluster.go" && wallClock[sel.Sel.Name] {
					t.Errorf("%s: %s uses the wall clock (time.%s) in the virtual-time driver", fset.Position(sel.Pos()), fname, sel.Sel.Name)
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
		log := &sendLog{Transport: stubEndpoint()}
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

// TestNackSweepSameSeedSameOrder: a NACK sweep walks groups and sources in
// sorted order, so the payloads it releases reach the handler in one
// order. An unstarted node has two reliable-ordered groups of four sources
// each; every window holds seq 3 behind a gap at 2 that has spent all its
// NACK attempts, so one sweep abandons the eight gaps and releases eight
// payloads. In map order the release order changed from run to run.
func TestNackSweepSameSeedSameOrder(t *testing.T) {
	build := func() []string {
		n := New(&sendLog{Transport: stubEndpoint()}, DefaultConfig(10, nil, 7))
		defer n.Close()
		past := time.Now().Add(-time.Minute)
		var order []string
		stepAt(n, time.Now(), event{flow: func() {
			for _, gid := range []string{"g1", "g2"} {
				gs := newGroupState(wire.ReliableOrdered)
				gs.member = true
				n.groups[gid] = gs
				for src := 0; src < 4; src++ {
					w := n.windowFor(gs, wire.PeerInfo{Addr: fmt.Sprintf("src-%d", src)})
					var res reliable.ObserveResult
					w.ObserveItem(1, reliable.Item{Data: []byte("p1")}, past, &res)
					w.ObserveItem(3, reliable.Item{Data: []byte("p3")}, past, &res)
					for i := 0; i < reliable.DefaultNackMaxAttempts; i++ {
						w.DueGaps(past.Add(time.Duration(i)*time.Second), reliable.NackPolicy{}, &res)
					}
				}
			}
			n.nackSweep()
			for _, d := range n.released {
				order = append(order, fmt.Sprintf("%s/%s#%d", d.gid, d.src.Addr, d.Seq))
			}
		}})
		return order
	}
	want := build()
	if len(want) != 8 {
		t.Fatalf("the sweep released %v, want 8 payloads", want)
	}
	for run := 1; run <= 20; run++ {
		if got := build(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d released in another order:\n got %v\nwant %v", run, got, want)
		}
	}
}

// TestDhtRescueSameSeedSameFrames: dead neighbours leave in address order
// and a rescue walks the record store in group order, so one seed sends one
// set of rescue frames. An unstarted node holds three records of remote
// owners; two neighbours in its routing table fall silent past the grace,
// and the epoch removes them, each removal re-pushing every record (a
// ReqID each) to the three contacts left. In map order which record got
// which ReqID changed from run to run.
func TestDhtRescueSameSeedSameFrames(t *testing.T) {
	const hb = time.Minute
	build := func() map[string][]string {
		log := &sendLog{Transport: stubEndpoint()}
		cfg := DefaultConfig(10, nil, 7)
		cfg.HeartbeatInterval = hb
		n := New(log, cfg)
		defer n.Close()
		t0 := time.Now()
		stepAt(n, t0, event{flow: func() {
			for _, addr := range []string{"holder-a", "holder-b", "c-1", "c-2", "c-3"} {
				info := wire.PeerInfo{Addr: addr}
				if strings.HasPrefix(addr, "holder") {
					n.addNeighbor(info)
				}
				n.dhtObserve(info)
			}
			for _, gid := range []string{"r1", "r2", "r3"} {
				n.dht.store.Put(dht.KeyID(gid), dht.Record{
					GroupID: gid, Rendezvous: wire.PeerInfo{Addr: "owner-" + gid}, Epoch: 1,
				}, n.now)
			}
		}})
		stepAt(n, t0.Add(4*hb), event{flow: func() { n.epoch(false) }})
		frames := make(map[string][]string)
		for _, s := range log.sent {
			frames[s.to] = append(frames[s.to], fmt.Sprintf("%v %s#%d", s.msg.Type, s.msg.GroupID, s.msg.ReqID))
		}
		return frames
	}
	want := build()
	if len(want["c-1"]) != 6 {
		t.Fatalf("c-1 got rescue frames %v, want 6 (3 records × 2 dead holders)", want["c-1"])
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
	log := &sendLog{Transport: stubEndpoint()}
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
