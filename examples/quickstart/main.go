// Quickstart: build a small GroupCast overlay in-process, form one
// communication group with the utility-aware SSA scheme, publish a payload,
// and print the tree and dissemination statistics. A second act starts a
// small *live* cluster with message tracing on, publishes once, and prints
// the hop-by-hop path read back from the nodes' trace rings.
//
// Run with:
//
//	go run ./examples/quickstart
//
// Add -debug-addr to keep the live cluster up and inspect it over HTTP,
// exactly like `groupcast-node -debug-addr`:
//
//	go run ./examples/quickstart -debug-addr 127.0.0.1:6001
//	curl -s 127.0.0.1:6001/debug/tree | python3 -m json.tool
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/core"
	"groupcast/internal/introspect"
	"groupcast/internal/node"
	"groupcast/internal/overlay"
	"groupcast/internal/peer"
	"groupcast/internal/protocol"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

var debugAddr = flag.String("debug-addr", "",
	"serve the live rendezvous node's /debug endpoint here and stay up (e.g. 127.0.0.1:6001)")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
	if err := runLiveTraced(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 64
	rng := rand.New(rand.NewSource(42))

	// 1. A peer population: Table-1 capacities and planar coordinates.
	caps := peer.MustTable1Sampler().SampleN(n, rng)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * 300
		ys[i] = rng.Float64() * 300
	}
	uni := &overlay.Universe{
		Caps: caps,
		Dist: func(i, j int) float64 {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			return math.Sqrt(dx*dx + dy*dy)
		},
	}

	// 2. The utility-aware overlay: every peer joins through the host cache
	// and picks neighbours with the Selection Preference utility.
	g, builder, err := overlay.BuildGroupCast(uni, overlay.DefaultBootstrapConfig(), rng, nil)
	if err != nil {
		return err
	}
	fmt.Printf("overlay: %d peers, %d directed edges, connected=%v\n",
		g.NumAlive(), g.NumEdges(), overlay.IsConnected(g))

	// A peer's utility view of its neighbours:
	nbrs := g.Neighbors(0)
	cands := make([]core.Candidate, len(nbrs))
	for i, nb := range nbrs {
		cands[i] = core.Candidate{Capacity: float64(uni.Caps[nb]), Distance: uni.Dist(0, nb)}
	}
	prefs, err := core.SelectionPreferencesFor(builder.ResourceLevel(0), cands)
	if err != nil {
		return err
	}
	fmt.Printf("peer 0 (capacity %v, r=%.2f) neighbour preferences:\n",
		uni.Caps[0], builder.ResourceLevel(0))
	for i, nb := range nbrs {
		fmt.Printf("  -> peer %2d  capacity %6v  distance %5.1f  preference %.3f\n",
			nb, uni.Caps[nb], uni.Dist(0, nb), prefs[i])
	}

	// 3. A communication group: advertise from a rendezvous, subscribe a
	// third of the peers, and build the spanning tree.
	subscribers := rng.Perm(n)[:n/3]
	tree, adv, results, err := protocol.BuildGroup(
		g, 0, subscribers, builder.ResourceLevel,
		protocol.DefaultAdvertiseConfig(), protocol.DefaultSubscribeConfig(), rng, nil)
	if err != nil {
		return err
	}
	ok := 0
	for _, r := range results {
		if r.OK {
			ok++
		}
	}
	fmt.Printf("group: advertisement reached %d/%d peers with %d messages; %d/%d subscriptions ok\n",
		adv.NumReceived(), n, adv.Messages, ok, len(subscribers))
	fmt.Printf("tree: %d nodes (%d members), valid=%v\n",
		tree.Size(), tree.NumMembers(), tree.Validate() == nil)

	// 4. Publish a payload from the rendezvous and report dissemination.
	res, err := protocol.Publish(g, tree, 0, nil)
	if err != nil {
		return err
	}
	fmt.Printf("publish: %d overlay messages, mean member delay %.1f ms\n",
		res.OverlayMessages, res.MeanDelay())
	return nil
}

// runLiveTraced is the observability half of the quickstart: a small live
// cluster (goroutine-driven nodes on the in-memory transport) with tracing
// enabled, one published payload, and its dissemination path reconstructed
// purely from the trace events the nodes buffered.
func runLiveTraced() error {
	const n = 6
	net := transport.NewMemNetwork()
	lat := rand.New(rand.NewSource(7))
	net.SetLatency(func(from, to string) time.Duration {
		return time.Duration(5+lat.Intn(20)) * time.Millisecond
	})

	rng := rand.New(rand.NewSource(2))
	sampler := peer.MustTable1Sampler()
	var nodes []*node.Node
	for i := 0; i < n; i++ {
		cfg := node.DefaultConfig(
			float64(sampler.Sample(rng)),
			coords.Point{rng.Float64() * 200, rng.Float64() * 200},
			int64(i+1))
		cfg.HeartbeatInterval = 200 * time.Millisecond
		cfg.Tracer = trace.New(1024, nil) // 1024-event ring per node
		nd := node.New(net.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			return fmt.Errorf("live bootstrap: %w", err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()

	rdv := nodes[0]
	if err := rdv.CreateGroupMode("traced", wire.Reliable); err != nil {
		return err
	}
	if err := rdv.Advertise("traced"); err != nil {
		return err
	}
	members := 1
	for _, nd := range nodes[1:] {
		if err := nd.Join("traced", 6*time.Second); err != nil {
			fmt.Printf("  %s could not join: %v\n", nd.Addr(), err)
			continue
		}
		members++
	}
	fmt.Printf("\nlive cluster: %d traced nodes, %d members of group %q\n",
		n, members, "traced")

	// Deliveries only reach the application (and the trace) when a payload
	// handler is installed.
	delivered := make(chan string, n)
	for _, nd := range nodes {
		nd.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
			delivered <- string(data)
		})
	}
	time.Sleep(500 * time.Millisecond) // let re-parenting settle into the tree

	if err := rdv.Publish("traced", []byte("traced hello")); err != nil {
		return err
	}
	deadline := time.After(5 * time.Second)
	for got := 0; got < members-1; { // every member but the publisher delivers
		select {
		case <-delivered:
			got++
		case <-deadline:
			return fmt.Errorf("timed out waiting for deliveries")
		}
	}
	time.Sleep(100 * time.Millisecond) // let the last trace events land

	// Find the publish event at the source to learn its trace ID, then pull
	// every event of that trace from every node's ring — the same data
	// /debug/trace serves over HTTP.
	var origin trace.Event
	for _, ev := range rdv.TraceEvents(0) {
		if ev.Kind == trace.KindPublish && ev.Group == "traced" {
			origin = ev
		}
	}
	if origin.TraceID == 0 {
		return fmt.Errorf("no publish trace event recorded at %s", rdv.Addr())
	}
	var path []trace.Event
	for _, nd := range nodes {
		for _, ev := range nd.TraceEvents(0) {
			if ev.TraceID == origin.TraceID {
				path = append(path, ev)
			}
		}
	}
	sort.Slice(path, func(i, j int) bool { return path[i].Time.Before(path[j].Time) })
	fmt.Printf("one publish, hop by hop (trace %d, %d events):\n",
		origin.TraceID, len(path))
	for _, ev := range path {
		link := ""
		switch ev.Kind {
		case trace.KindSend, trace.KindRetransmit:
			link = " -> " + ev.Peer
		case trace.KindRecv:
			link = " <- " + ev.Peer
		}
		fmt.Printf("  +%6.1fms  %-7s %-9s%s\n",
			float64(ev.Time.Sub(origin.Time).Microseconds())/1000,
			ev.Node, ev.Kind, link)
	}

	if *debugAddr == "" {
		return nil
	}
	// Same surface as `groupcast-node -debug-addr`: vars, tree, overlay,
	// trace, pprof — for the rendezvous node of the live cluster.
	srv, err := introspect.Start(*debugAddr, rdv)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Printf("debug endpoint on http://%s/debug/vars (Ctrl-C to exit)\n", srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	return nil
}
