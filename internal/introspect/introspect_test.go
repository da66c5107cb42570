package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/node"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// startTCPNode boots one live node over real TCP with tracing enabled.
func startTCPNode(t *testing.T, seed int64, contacts ...string) *node.Node {
	t.Helper()
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.DefaultConfig(10, coords.Point{float64(seed), 0}, seed)
	cfg.HeartbeatInterval = 200 * time.Millisecond
	cfg.Tracer = trace.New(256, nil)
	n := node.New(tr, cfg)
	n.Start()
	t.Cleanup(func() { _ = n.Close() })
	if err := n.Bootstrap(contacts, 2*time.Second); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	return n
}

// TestEndpointsServeJSONOverTCP is the acceptance test of the introspection
// layer: a small live-TCP cluster with a working group must serve valid,
// populated JSON on all four debug endpoints.
func TestEndpointsServeJSONOverTCP(t *testing.T) {
	rdv := startTCPNode(t, 1)
	peer := startTCPNode(t, 2, rdv.Addr())

	if err := rdv.CreateGroupMode("dbg", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("dbg"); err != nil {
		t.Fatal(err)
	}
	if err := peer.Join("dbg", 3*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := rdv.Publish("dbg", []byte("hello")); err != nil {
		t.Fatal(err)
	}

	srv, err := Start("127.0.0.1:0", rdv)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: content type %q", path, ct)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, body)
		}
		return doc
	}

	vars := get("/debug/vars")
	if vars["addr"] != rdv.Addr() {
		t.Errorf("/debug/vars addr = %v, want %s", vars["addr"], rdv.Addr())
	}
	metricsDoc, ok := vars["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars has no metrics object: %v", vars["metrics"])
	}
	hists, ok := metricsDoc["histograms"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars metrics has no histograms: %v", metricsDoc)
	}
	if _, ok := hists[node.MetricPublishDeliverLatency]; !ok {
		t.Errorf("histograms missing %q: have %v", node.MetricPublishDeliverLatency, hists)
	}

	tree := get("/debug/tree")
	trees, ok := tree["trees"].([]any)
	if !ok || len(trees) == 0 {
		t.Fatalf("/debug/tree has no trees: %v", tree)
	}
	td, _ := trees[0].(map[string]any)
	if td["group"] != "dbg" {
		t.Errorf("/debug/tree group = %v, want dbg", td["group"])
	}
	if rv, _ := td["rendezvous"].(bool); !rv {
		t.Errorf("/debug/tree rendezvous = %v, want true", td["rendezvous"])
	}
	links, _ := td["links"].([]any)
	if len(links) == 0 {
		t.Fatal("/debug/tree has no links for the group")
	}
	link, _ := links[0].(map[string]any)
	for _, field := range []string{"addr", "role", "capacity", "latency_ms", "utility"} {
		if _, ok := link[field]; !ok {
			t.Errorf("/debug/tree link missing %q: %v", field, link)
		}
	}

	overlayDoc := get("/debug/overlay")
	peers, ok := overlayDoc["peers"].([]any)
	if !ok || len(peers) == 0 {
		t.Fatalf("/debug/overlay has no peers: %v", overlayDoc)
	}

	dhtDoc := get("/debug/dht")
	dv, ok := dhtDoc["dht"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/dht has no dht object: %v", dhtDoc)
	}
	if enabled, _ := dv["enabled"].(bool); !enabled {
		t.Errorf("/debug/dht enabled = %v, want true", dv["enabled"])
	}
	if id, _ := dv["id"].(string); len(id) != 40 {
		t.Errorf("/debug/dht id = %q, want a 40-hex-digit node ID", dv["id"])
	}

	recDoc := get("/debug/recovery")
	rv, ok := recDoc["recovery"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/recovery has no recovery object: %v", recDoc)
	}
	if enabled, _ := rv["enabled"].(bool); enabled {
		t.Errorf("/debug/recovery enabled = %v, want false without StatePath", rv["enabled"])
	}

	tr := get("/debug/trace?n=50")
	if tracing, _ := tr["tracing"].(bool); !tracing {
		t.Errorf("/debug/trace tracing = %v, want true", tr["tracing"])
	}
	evs, ok := tr["events"].([]any)
	if !ok || len(evs) == 0 {
		t.Fatalf("/debug/trace has no events: %v", tr)
	}
	kinds := make(map[string]bool)
	for _, e := range evs {
		ev, _ := e.(map[string]any)
		kind, _ := ev["kind"].(string)
		kinds[kind] = true
	}
	if !kinds[string(trace.KindPublish)] {
		t.Errorf("/debug/trace events lack a publish event: kinds %v", kinds)
	}

	// Bad query parameters are rejected, not served.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/trace?n=bogus", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ?n= returned status %d, want 400", resp.StatusCode)
	}

	// The profiler index answers too (HTML, not JSON).
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d, want 200", resp.StatusCode)
	}
}
