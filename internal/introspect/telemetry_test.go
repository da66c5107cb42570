package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/metrics"
	"groupcast/internal/node"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTelemetryEndpoints drives the three PR 9 endpoints on a live two-node
// TCP cluster: /debug/cluster must show a converged fleet view,
// /debug/history a growing local time series, and /debug/metrics Prometheus
// text exposition — and every scalar of node.Stats must surface, under the
// snake_case of its field name, as a registry counter in all three views.
func TestTelemetryEndpoints(t *testing.T) {
	rdv := startTCPNode(t, 1)
	peer := startTCPNode(t, 2, rdv.Addr())
	peer.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {})

	if err := rdv.CreateGroupMode("tel", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("tel"); err != nil {
		t.Fatal(err)
	}
	if err := peer.Join("tel", 3*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := rdv.Publish("tel", []byte("x")); err != nil {
		t.Fatal(err)
	}

	srv, err := Start("127.0.0.1:0", rdv)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// The fleet view needs a couple of heartbeat epochs to gossip.
	waitUntil(t, 5*time.Second, func() bool {
		return len(rdv.FleetView()) >= 2 && len(rdv.TelemetryHistory()) > 0
	}, "rdv fleet view never converged")

	getJSON := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, body)
		}
		return doc
	}

	cl := getJSON("/debug/cluster")
	if cl["addr"] != rdv.Addr() || cl["enabled"] != true {
		t.Fatalf("/debug/cluster header wrong: %v", cl)
	}
	clNodes, _ := cl["nodes"].([]any)
	if len(clNodes) < 2 {
		t.Fatalf("/debug/cluster has %d nodes, want >= 2: %v", len(clNodes), cl)
	}
	seen := map[string]bool{}
	for _, raw := range clNodes {
		nh, _ := raw.(map[string]any)
		addr, _ := nh["addr"].(string)
		seen[addr] = true
		if ep, _ := nh["epoch"].(float64); ep == 0 {
			t.Errorf("/debug/cluster node %s has epoch 0", addr)
		}
	}
	if !seen[rdv.Addr()] || !seen[peer.Addr()] {
		t.Errorf("/debug/cluster missing a node: %v", seen)
	}
	if _, ok := cl["slo"].(map[string]any); !ok {
		t.Errorf("/debug/cluster has no slo config: %v", cl["slo"])
	}

	hist := getJSON("/debug/history")
	samples, _ := hist["samples"].([]any)
	if len(samples) == 0 {
		t.Fatalf("/debug/history has no samples: %v", hist)
	}
	s0, _ := samples[0].(map[string]any)
	for _, field := range []string{"epoch", "t", "counters"} {
		if _, ok := s0[field]; !ok {
			t.Errorf("/debug/history sample missing %q: %v", field, s0)
		}
	}

	// One counter plane: the registry holds every Stats scalar, read from the
	// same memory Stats() reads.
	waitUntil(t, 5*time.Second, func() bool { return peer.Stats().Delivered >= 1 },
		"peer never delivered the publish")
	statNames := metrics.CounterFields(reflect.TypeOf(node.Stats{}))
	if len(statNames) < 40 {
		t.Fatalf("walker found %d Stats counters, want every scalar (>= 40)", len(statNames))
	}
	peerCounters := peer.MetricsSnapshot().Counters
	if got, want := peerCounters["delivered"], int64(peer.Stats().Delivered); got != want || want < 1 {
		t.Errorf("registry delivered = %d, Stats().Delivered = %d", got, want)
	}
	varsMetrics, _ := getJSON("/debug/vars")["metrics"].(map[string]any)
	varsCounters, _ := varsMetrics["counters"].(map[string]any)
	histCounters, _ := s0["counters"].(map[string]any)
	for _, f := range statNames {
		if _, ok := peerCounters[f.Name]; !ok {
			t.Errorf("MetricsSnapshot().Counters lacks %q", f.Name)
		}
		if _, ok := varsCounters[f.Name]; !ok {
			t.Errorf("/debug/vars counters lack %q", f.Name)
		}
		if _, ok := histCounters[f.Name]; !ok {
			t.Errorf("/debug/history sample lacks counter %q", f.Name)
		}
	}
	for _, name := range []string{"state_saves", "transport_inbox_sheds", "transport_best_effort_sheds",
		"delivered", "publish_rejects", "relay_sheds", "send_errors", "retransmits", "slo_alerts"} {
		if _, ok := peerCounters[name]; !ok {
			t.Errorf("pre-existing metric name %q is gone", name)
		}
	}

	resp, err := http.Get(base + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	promBody, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prom content type %q", ct)
	}
	text := string(promBody)
	if !strings.Contains(text, "# TYPE groupcast_") {
		t.Errorf("prom output lacks TYPE comments:\n%.400s", text)
	}
	if !strings.Contains(text, fmt.Sprintf("node=%q", rdv.Addr())) {
		t.Errorf("prom output lacks the node label:\n%.400s", text)
	}
	if !strings.Contains(text, "_bucket{") || !strings.Contains(text, `le="+Inf"`) {
		t.Errorf("prom output lacks histogram buckets:\n%.400s", text)
	}
	for _, f := range statNames {
		if !strings.Contains(text, "# TYPE groupcast_"+f.Name+" counter\n") {
			t.Errorf("prom output does not expose %q as a counter", f.Name)
		}
	}

	// Every catalogued route answers 200; the retired /debug/expvars 404s,
	// and /debug/metrics (fetched above without ?format=) has no JSON form.
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range debugPaths {
		if got := status(path); got != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, got)
		}
	}
	if len(debugPaths) != 11 {
		t.Errorf("route catalogue has %d entries, want 11", len(debugPaths))
	}
	if got := status("/debug/expvars"); got != http.StatusNotFound {
		t.Errorf("/debug/expvars status %d, want 404", got)
	}
}

// debugPaths is the route catalogue: every read-only endpoint, one entry
// each. The hammer test hits them concurrently.
var debugPaths = []string{
	"/debug/vars",
	"/debug/metrics",
	"/debug/tree",
	"/debug/overlay",
	"/debug/overload",
	"/debug/dht",
	"/debug/recovery",
	"/debug/trace?n=50",
	"/debug/cluster",
	"/debug/history",
	"/debug/pprof/",
}

// TestDebugEndpointsHammer hammers every /debug/* endpoint from many
// goroutines while a live lossy cluster publishes underneath — the race
// detector (CI runs this package with -race) turns any unsynchronized
// snapshot into a failure — then asserts the whole stack tears down without
// leaking goroutines.
func TestDebugEndpointsHammer(t *testing.T) {
	baseline := runtime.NumGoroutine()

	mem := transport.NewMemNetwork()
	chaos := transport.NewChaosNetwork(7)
	chaos.SetDefaultRule(transport.LinkRule{Drop: 0.05})
	var nodes []*node.Node
	var servers []*Server
	for i := 0; i < 3; i++ {
		cfg := node.DefaultConfig(10, coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 60 * time.Millisecond
		cfg.Tracer = trace.New(512, nil)
		nd := node.New(chaos.Wrap(mem.NextEndpoint()), cfg)
		nd.Start()
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, time.Second); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		srv, err := Start("127.0.0.1:0", nd)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	rdv := nodes[0]
	if err := rdv.CreateGroupMode("hammer", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("hammer"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	for _, m := range nodes[1:] {
		if err := m.Join("hammer", 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	client := &http.Client{Transport: &http.Transport{}}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publisher: keeps the data plane (and the trace ring) churning under
	// the concurrent snapshot reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = rdv.Publish("hammer", []byte(fmt.Sprintf("p%d", i)))
			time.Sleep(5 * time.Millisecond)
		}
	}()

	const hammerers = 8
	errs := make(chan error, hammerers)
	for g := 0; g < hammerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				srv := servers[(g+i)%len(servers)]
				path := debugPaths[i%len(debugPaths)]
				resp, err := client.Get("http://" + srv.Addr() + path)
				if err != nil {
					errs <- fmt.Errorf("GET %s: %w", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(g)
	}

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Full teardown, then the goroutine count must return to (about) the
	// pre-test baseline: servers, nodes, HTTP keep-alives all accounted for.
	for _, srv := range servers {
		_ = srv.Close()
	}
	for _, nd := range nodes {
		_ = nd.Close()
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTraceFollowsNackRecoveryOverTCP follows one publish across three
// node processes over real TCP, each with its own debug HTTP server. The
// fault layer destroys the payload's first copy so the NACK/retransmit
// machinery must recover it; then every node's /debug/trace ring, read over
// HTTP, must hold the payload's whole life, recovery included, under the
// publish's trace ID on all three nodes. No clock alignment is involved:
// the nodes' own events, filtered on trace ID or group, are the timeline.
func TestTraceFollowsNackRecoveryOverTCP(t *testing.T) {
	cn := transport.NewChaosNetwork(42)
	var nodes []*node.Node
	var servers []*Server
	for i := 0; i < 3; i++ {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := node.DefaultConfig(10, coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 150 * time.Millisecond
		cfg.Tracer = trace.New(2048, nil)
		nd := node.New(cn.Wrap(tr), cfg)
		nd.Start()
		var contacts []string
		for _, prev := range nodes {
			contacts = append(contacts, prev.Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		srv, err := Start("127.0.0.1:0", nd)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	defer func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()

	rdv := nodes[0]
	if err := rdv.CreateGroupMode("recover", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("recover"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	for _, m := range nodes[1:] {
		if err := m.Join("recover", 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	got := map[string]int{}
	for _, m := range nodes[1:] {
		addr := m.Addr()
		m.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			mu.Lock()
			got[addr]++
			mu.Unlock()
		})
	}

	// Destroy the first copy: while the rules are up, everything the root
	// sends toward either member is lost — the publish fan-out included.
	// After the window lifts, only the NACK/digest recovery machinery can
	// close the gap, so a delivered payload PROVES a recovery happened.
	cn.SetLinkRule(rdv.Addr(), nodes[1].Addr(), transport.LinkRule{Drop: 1})
	cn.SetLinkRule(rdv.Addr(), nodes[2].Addr(), transport.LinkRule{Drop: 1})
	if err := rdv.Publish("recover", []byte("recover-me")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond)
	cn.SetLinkRule(rdv.Addr(), nodes[1].Addr(), transport.LinkRule{})
	cn.SetLinkRule(rdv.Addr(), nodes[2].Addr(), transport.LinkRule{})

	waitUntil(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got[nodes[1].Addr()] >= 1 && got[nodes[2].Addr()] >= 1
	}, "members never recovered the dropped payload")

	// Read every process's trace ring over HTTP; the union of the group's
	// events is the payload's life.
	var events []trace.Event
	traced := map[string]bool{}
	for _, srv := range servers {
		resp, err := http.Get("http://" + srv.Addr() + "/debug/trace")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Events []trace.Event `json:"events"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("GET %s/debug/trace: %s, %v", srv.Addr(), resp.Status, err)
		}
		for _, ev := range body.Events {
			if ev.Group == "recover" {
				events = append(events, ev)
				traced[ev.Node] = true
			}
		}
	}
	if len(traced) != 3 {
		t.Fatalf("group events on %d nodes, want 3: %v", len(traced), traced)
	}
	kinds := map[trace.Kind]bool{}
	deliverNodes := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
		if ev.Kind == trace.KindDeliver {
			deliverNodes[ev.Node] = true
		}
	}
	for _, want := range []trace.Kind{
		trace.KindPublish, trace.KindSend, trace.KindRecv,
		trace.KindDeliver, trace.KindNack, trace.KindRetransmit,
	} {
		if !kinds[want] {
			t.Errorf("no node traced a %q event: have %v", want, kinds)
		}
	}
	if len(deliverNodes) < 2 {
		t.Errorf("deliveries on %d nodes, want both members: %v", len(deliverNodes), deliverNodes)
	}

	// The headline use case: one publish TraceID follows the payload across
	// processes, and the retransmit that recovered it carries the same ID.
	var pubID uint64
	for _, ev := range events {
		if ev.Kind == trace.KindPublish {
			pubID = ev.TraceID
			break
		}
	}
	if pubID == 0 {
		t.Fatal("publish event has no TraceID")
	}
	oneNodes := map[string]bool{}
	oneKinds := map[trace.Kind]bool{}
	for _, ev := range events {
		if ev.TraceID == pubID {
			oneNodes[ev.Node] = true
			oneKinds[ev.Kind] = true
		}
	}
	if len(oneNodes) < 3 {
		t.Errorf("TraceID %d is on events of %v, want all 3 processes", pubID, oneNodes)
	}
	if !oneKinds[trace.KindRetransmit] {
		t.Errorf("TraceID %d events lack the recovery retransmit: %v", pubID, oneKinds)
	}
}

// TestPromOneFamilyPerName: a Prometheus scraper rejects a whole
// exposition that types one metric name twice, so every `# TYPE` line of a
// real node's /debug/metrics must name a different family.
func TestPromOneFamilyPerName(t *testing.T) {
	n := startTCPNode(t, 1)
	srv, err := Start("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	kinds := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		if prev, dup := kinds[f[2]]; dup {
			t.Errorf("%s is typed twice: %s and %s", f[2], prev, f[3])
		}
		kinds[f[2]] = f[3]
	}
	if len(kinds) == 0 {
		t.Fatalf("no # TYPE line in the exposition:\n%.400s", body)
	}
}
