package node

import (
	"errors"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// stalledPeer accepts TCP connections and never reads from them: dialable
// and alive from the sender's side, but every write stalls once the kernel
// socket buffers fill — the pathological slow peer the breaker exists for.
type stalledPeer struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newStalledPeer(t *testing.T) *stalledPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stalledPeer{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		s.ln.Close()
		s.mu.Lock()
		for _, c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	return s
}

// TestOverloadSoakTCP is the race-enabled overload soak CI runs: a
// flash-crowd publish storm against a live TCP trio while one of the trio's
// transports also fans out toward a stalled peer. The overload plane must
// keep the storm flowing (bounded queues + breaker isolate the stalled
// link), keep the control plane alive (no succession), account every loss,
// and leak no goroutines after shutdown.
func TestOverloadSoakTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	baseline := runtime.NumGoroutine()

	stalled := newStalledPeer(t)

	var nodes []*Node
	for i := 0; i < 3; i++ {
		tcfg := transport.DefaultTCPConfig()
		tcfg.WriteTimeout = 250 * time.Millisecond
		tcfg.SendQueueLen = 64
		tcfg.BreakerThreshold = 3
		tcfg.BreakerBackoff = 200 * time.Millisecond
		tr, err := transport.ListenTCPConfig("127.0.0.1:0", tcfg)
		if err != nil {
			t.Fatal(err)
		}
		ncfg := DefaultConfig(float64(10*(i+1)), coords.Point{float64(i), 0}, int64(i+1))
		ncfg.HeartbeatInterval = 100 * time.Millisecond
		nd := New(tr, ncfg)
		nd.Start()
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, testTimeout); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}

	const gid = "storm"
	rdv := nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.BestEffort); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	for i, nd := range nodes[1:] {
		if err := nd.Join(gid, testTimeout); err != nil {
			t.Fatalf("join node %d: %v", i+1, err)
		}
	}
	var received atomic.Uint64
	for _, nd := range nodes[1:] {
		nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			received.Add(1)
		})
	}

	// The stalled-peer fan-out: node 0's transport hammers the never-reading
	// address with large frames concurrently with the storm, wedging that
	// link's writer and exercising the send queue + breaker under -race.
	stormDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		big := wire.Message{Type: wire.TPayload, GroupID: gid, Data: make([]byte, 128<<10)}
		for i := 0; ; i++ {
			select {
			case <-stormDone:
				return
			default:
			}
			big.MsgID = uint64(i)
			_ = nodes[0].tr.Send(stalled.ln.Addr().String(), big)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The flash crowd: a publish storm from the rendezvous. Admission
	// control may push back while degraded; everything admitted must flow.
	const storm = 300
	published := 0
	for i := 0; i < storm; i++ {
		err := rdv.Publish(gid, []byte("flash-crowd"))
		switch {
		case err == nil:
			published++
		case errors.Is(err, ErrBackpressure):
			// Shed at the edge: accounted, not lost in a queue.
		default:
			t.Fatalf("publish %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stormDone)
	wg.Wait()

	if published == 0 {
		t.Fatal("admission control rejected the entire storm")
	}
	// Best-effort delivery may shed under pressure, but the storm must
	// substantially flow — the stalled link is isolated, not amplified.
	waitFor(t, 15*time.Second, func() bool {
		return received.Load() >= uint64(published)/2
	}, static("storm delivery collapsed behind a stalled peer"))

	// The stalled link's damage is visible and bounded: its breaker tripped
	// or its queue shed, and the accounting shows it.
	ds := nodes[0].Stats().Transport
	if ds.SendQueueDrops+ds.BreakerRejects+ds.FabricDrops == 0 {
		t.Fatalf("stalled link lost frames without accounting: %+v", ds)
	}

	// Control-plane survival: the overlay held and no succession started.
	for _, nd := range nodes {
		if nd.NumNeighbors() < 1 {
			t.Fatalf("%s lost all neighbours during the storm", nd.Addr())
		}
	}
	for _, td := range rdv.TreeDetails() {
		if td.Group == gid && (td.Epoch != 1 || td.Promoted) {
			t.Fatalf("storm triggered a succession: epoch=%d promoted=%v", td.Epoch, td.Promoted)
		}
	}

	// Shutdown leaks nothing: every loop, writer, and breaker probe exits.
	for _, nd := range nodes {
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, baseline+3, 10*time.Second)
}

// controlLoss is a TCP transport that counts the control-class sends it
// refused (full queue, open breaker, dead link).
type controlLoss struct {
	*transport.TCPTransport
	lost atomic.Uint64
}

func (c *controlLoss) Send(addr string, msg wire.Message) error {
	err := c.TCPTransport.Send(addr, msg)
	c.count(&msg, err)
	return err
}

func (c *controlLoss) SendMany(addrs []string, msg wire.Message, each func(string, error)) {
	c.TCPTransport.SendMany(addrs, msg, func(addr string, err error) {
		c.count(&msg, err)
		if each != nil {
			each(addr, err)
		}
	})
}

func (c *controlLoss) count(msg *wire.Message, err error) {
	if err != nil && wire.Classify(msg) == wire.ClassControl {
		c.lost.Add(1)
	}
}

// TestControlSurvivesSaturatedLink: a publisher floods its only TCP link
// with 4 KiB reliable-ordered payloads, as fast as Publish returns, for
// MissedHeartbeatsToFail + 2 epochs. The link's data queue overflows, but
// heartbeats, their acks and beacons ride the control queue ahead of the
// payloads: none is refused, neither node suspects the other, and the tree
// holds.
func TestControlSurvivesSaturatedLink(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	var (
		nodes []*Node
		trs   []*controlLoss
	)
	for i := 0; i < 2; i++ {
		tcfg := transport.DefaultTCPConfig()
		tcfg.SendQueueLen = 8
		tcp, err := transport.ListenTCPConfig("127.0.0.1:0", tcfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := &controlLoss{TCPTransport: tcp}
		ncfg := DefaultConfig(float64(10*(i+1)), coords.Point{float64(i), 0}, int64(i+1))
		ncfg.HeartbeatInterval = 100 * time.Millisecond
		nd := New(tr, ncfg)
		nd.Start()
		t.Cleanup(func() { _ = nd.Close() })
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, testTimeout); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		trs = append(trs, tr)
	}
	pub, sub := nodes[0], nodes[1]
	const gid = "saturate"
	if err := pub.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(gid); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := sub.Join(gid, testTimeout); err != nil {
		t.Fatal(err)
	}
	// Settled: the subscriber has also heard a beacon (it learns the
	// root's epoch from one).
	waitFor(t, 5*time.Second, func() bool {
		return treeSettled(nodes, gid, nodes) && sub.Tree(gid).Epoch == pub.Tree(gid).Epoch
	}, static("tree never settled"))
	pubTree, subTree := pub.Tree(gid), sub.Tree(gid)

	epochs := pub.cfg.MissedHeartbeatsToFail + 2
	payload := make([]byte, 4<<10)
	published := 0
	for end := time.Now().Add(time.Duration(epochs) * pub.cfg.HeartbeatInterval); time.Now().Before(end); {
		switch err := pub.Publish(gid, payload); {
		case err == nil:
			published++
		case errors.Is(err, ErrPublishFailed):
			// The link's data queue was full: shed, as designed.
		default:
			t.Fatalf("publish: %v", err)
		}
	}

	if drops := trs[0].DropStats().SendQueueDrops; drops == 0 {
		t.Fatalf("the data queue never overflowed (%d publishes); the link was not saturated", published)
	}
	for i, nd := range nodes {
		if lost := trs[i].lost.Load(); lost != 0 {
			t.Errorf("%s: %d control sends refused under data load, want 0", nd.Addr(), lost)
		}
		if st := nd.Stats(); st.Suspected != 0 || st.NeighborsDeclaredDead != 0 {
			t.Errorf("%s: Suspected=%d NeighborsDeclaredDead=%d under data load, want 0/0",
				nd.Addr(), st.Suspected, st.NeighborsDeclaredDead)
		}
	}
	if got := pub.Tree(gid); !slices.Equal(got.Children, pubTree.Children) || got.Epoch != pubTree.Epoch {
		t.Errorf("publisher tree changed: %+v, was %+v", got, pubTree)
	}
	if got := sub.Tree(gid); got.Parent != subTree.Parent || got.Epoch != subTree.Epoch {
		t.Errorf("subscriber tree changed: %+v, was %+v", got, subTree)
	}
}
