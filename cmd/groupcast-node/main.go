// Command groupcast-node runs a live GroupCast peer over TCP: it bootstraps
// into an overlay through known contacts, optionally hosts a communication
// group as its rendezvous point, joins groups, and relays chat lines typed
// on stdin to the group.
//
// Start a rendezvous:
//
//	groupcast-node -listen 127.0.0.1:7001 -create demo -capacity 100
//
// Join from other terminals:
//
//	groupcast-node -listen 127.0.0.1:7002 -contacts 127.0.0.1:7001 -join demo
//
// Every line typed on stdin is published to the group; received payloads are
// printed with their sender.
//
// Observability (see docs/OBSERVABILITY.md): -debug-addr serves the live
// introspection endpoint (/debug/vars, /debug/tree, /debug/overlay,
// /debug/trace, /debug/pprof/), which also enables in-memory message
// tracing; -trace-file additionally streams every trace event as NDJSON.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/introspect"
	"groupcast/internal/node"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// traceRingCapacity bounds the in-memory trace buffer served by
// /debug/trace (newest events win; NDJSON sees everything).
const traceRingCapacity = 4096

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "groupcast-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		contacts  = flag.String("contacts", "", "comma-separated bootstrap addresses")
		create    = flag.String("create", "", "create (and advertise) a group as its rendezvous")
		join      = flag.String("join", "", "join an existing group")
		capacity  = flag.Float64("capacity", 10, "node capacity (64 kbps connection units)")
		seed      = flag.Int64("seed", 0, "random seed (0 derives one from the clock)")
		quiet     = flag.Bool("quiet", false, "suppress status lines")
		vivaldi   = flag.Bool("vivaldi", false, "measure live Vivaldi network coordinates from heartbeat RTTs")
		mode      = flag.String("mode", "best-effort", "delivery mode for -create'd groups: best-effort, reliable, reliable-ordered")
		deputies  = flag.Int("deputies", 3, "succession roster size: the rendezvous replicates its group charter to this many highest-utility children (0 disables succession)")
		debugAddr = flag.String("debug-addr", "", "serve the introspection endpoint on this address (enables tracing)")
		traceFile = flag.String("trace-file", "", "append trace events as NDJSON to this file (enables tracing)")
		discovery = flag.String("discovery", "dht", "group discovery plane: dht (Kademlia lookup with ripple fallback) or ripple (flood-only, see docs/DISCOVERY.md)")
		stateFile = flag.String("state-file", "", "durable state file for crash-restart recovery: checkpoints identity, charters, reliable high-water marks and the routing snapshot, and resumes from them on restart (see docs/ARCHITECTURE.md)")
	)
	flag.Parse()

	deliveryMode, err := wire.ParseDeliveryMode(*mode)
	if err != nil {
		return err
	}

	// Normalize the seed once so every consumer (node RNG, logs) sees the
	// same effective value: 0 means "give me a fresh one", anything else is
	// reproducible. The old behaviour — a time-derived flag *default* —
	// made `-seed` look deterministic in -help while never being so.
	effectiveSeed := *seed
	if effectiveSeed == 0 {
		effectiveSeed = time.Now().UnixNano()
	}

	tr, err := transport.ListenTCP(*listen)
	if err != nil {
		return err
	}
	cfg := node.DefaultConfig(*capacity, coords.Point{0, 0, 0}, effectiveSeed)
	cfg.EnableVivaldi = *vivaldi
	cfg.Deputies = *deputies
	switch *discovery {
	case "dht":
	case "ripple":
		cfg.DisableDHT = true
	default:
		return fmt.Errorf("unknown -discovery %q (want dht or ripple)", *discovery)
	}
	cfg.StatePath = *stateFile

	status := func(format string, args ...any) {
		if !*quiet {
			fmt.Printf(format+"\n", args...)
		}
	}

	var sink trace.Sink
	if *traceFile != "" {
		// A file sink (NDJSON over the file it owns) so node.Close flushes and
		// fsyncs the file after the loops stop — a killed-at-the-right-moment
		// process no longer truncates its last trace lines, and write errors
		// surface in Stats.TraceWriteErrors instead of vanishing.
		fs, err := trace.OpenFileSink(*traceFile)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		sink = fs
	}
	if *debugAddr != "" || sink != nil {
		cfg.Tracer = trace.New(traceRingCapacity, sink)
	}

	n := node.New(tr, cfg)
	n.Start()
	defer n.Close()
	status("listening on %s (seed %d)", n.Addr(), effectiveSeed)

	if *debugAddr != "" {
		dbg, err := introspect.Start(*debugAddr, n)
		if err != nil {
			return err
		}
		defer dbg.Close()
		status("debug endpoint on http://%s/debug/vars", dbg.Addr())
	}

	var boots []string
	for _, c := range strings.Split(*contacts, ",") {
		if c = strings.TrimSpace(c); c != "" {
			boots = append(boots, c)
		}
	}
	if err := n.Bootstrap(boots, 5*time.Second); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	status("connected to %d neighbours", n.NumNeighbors())

	if rv := n.RecoveryView(); rv.Restored {
		status("restored state from %s (epoch %d, %d groups)",
			rv.Path, rv.RestoredEpoch, len(rv.RestoredGroups))
		if err := n.RecoverGroups(5 * time.Second); err != nil {
			status("recovery: %v (continuing as a fresh join)", err)
		}
	}

	groupID := ""
	switch {
	case *create != "":
		groupID = *create
		if err := n.CreateGroupMode(groupID, deliveryMode); err != nil {
			return err
		}
		if err := n.Advertise(groupID); err != nil {
			return err
		}
		status("created and advertised group %q (%s)", groupID, deliveryMode)
	case *join != "":
		groupID = *join
		// The advertisement may still be in flight: Join retries on its own
		// until its deadline.
		if err := n.Join(groupID, 3*time.Second); err != nil {
			return fmt.Errorf("join %q: %w", groupID, err)
		}
		status("joined group %q", groupID)
	default:
		status("no group requested; relaying only")
	}

	n.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
		fmt.Printf("[%s] %s: %s\n", gid, from.Addr, data)
	})

	if groupID == "" {
		select {} // pure relay: run until killed
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := n.Publish(groupID, []byte(line)); err != nil {
			return err
		}
	}
	return sc.Err()
}
