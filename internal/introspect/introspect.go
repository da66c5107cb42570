// Package introspect is the live-debugging surface of a GroupCast node: an
// opt-in HTTP endpoint (groupcast-node -debug-addr) serving the node's
// metrics registry, tree and overlay snapshots, recent trace events, and
// the Go runtime profiler. Everything is read-only and JSON (except pprof
// and the Prometheus scrape), so `curl | jq` is the whole client story.
//
// Endpoint catalog (see docs/OBSERVABILITY.md):
//
//	/debug/vars     metrics registry snapshot + node stats + overload (JSON)
//	/debug/metrics  the metrics registry as Prometheus text exposition
//	/debug/tree     per-group tree attachment with per-link utility/latency
//	/debug/overlay  neighbour table with liveness and coordinates
//	/debug/overload overload controller state + per-peer circuit breakers
//	/debug/dht      discovery-plane snapshot: routing table, records, counters
//	/debug/recovery crash–restart plane: state-file status, restore + churn rate
//	/debug/trace    recent trace events, newest last (?n= caps the count)
//	/debug/cluster  gossiped fleet view: per-node health digests + SLO alerts
//	/debug/history  local telemetry time series, oldest sample first
//	/debug/pprof/   the standard Go profiler index
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"groupcast/internal/node"
	"groupcast/internal/telemetry"
)

// Handler builds the debug mux for one node. The mux is self-contained (no
// global registration), so tests can run many nodes' endpoints in one
// process.
func Handler(n *node.Node) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"addr":     n.Addr(),
			"metrics":  n.MetricsSnapshot(),
			"stats":    n.Stats(),
			"overload": n.OverloadSnapshot(),
		})
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus text only (?format=prom is accepted and ignored); the
		// JSON view of the same snapshot is /debug/vars.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WriteProm(w, n.MetricsSnapshot(), map[string]string{"node": n.Addr()})
	})
	mux.HandleFunc("/debug/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, n.ClusterView())
	})
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"addr":    n.Addr(),
			"samples": n.TelemetryHistory(),
		})
	})
	mux.HandleFunc("/debug/overload", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"addr":     n.Addr(),
			"overload": n.OverloadSnapshot(),
			"breakers": n.Breakers(),
		})
	})
	mux.HandleFunc("/debug/tree", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"addr":  n.Addr(),
			"trees": n.TreeDetails(),
		})
	})
	mux.HandleFunc("/debug/overlay", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, n.OverlayView())
	})
	mux.HandleFunc("/debug/recovery", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"addr":     n.Addr(),
			"recovery": n.RecoveryView(),
		})
	})
	mux.HandleFunc("/debug/dht", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"addr": n.Addr(),
			"dht":  n.DhtView(),
		})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "invalid n", http.StatusBadRequest)
				return
			}
			limit = v
		}
		evs := n.TraceEvents(limit)
		writeJSON(w, map[string]any{
			"addr":    n.Addr(),
			"tracing": n.Tracer() != nil,
			"events":  evs,
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}

// Server is a running debug endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start serves the node's debug endpoint on addr (":0" picks a free port).
func Start(addr string, n *node.Node) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(n),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
