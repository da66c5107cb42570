// Package telemetry is the fleet-level half of the observability plane. The
// PR 4 layer (internal/trace, internal/metrics, internal/introspect) answers
// "what is THIS node doing RIGHT NOW"; this package answers the two
// questions a fleet operator asks of the cluster as a whole:
//
//   - "What was this node doing a minute ago?" — History, a bounded
//     time-series ring sampling the metrics registry each beacon epoch
//     (counters as deltas, gauges, histogram quantiles), served by
//     /debug/history.
//   - "Which node in the cluster is degrading?" — Fleet, an eventually
//     consistent per-node view built from compact HealthDigests gossiped on
//     the heartbeat plane (no central collector — the same local-exchange
//     mechanism the overlay itself runs on), with staleness marking and SLO
//     rules (delivery ratio, p99 latency, overload pressure) that emit
//     structured alerts through enter/exit hysteresis like the PR 7 overload
//     controller. Served by /debug/cluster and rendered by groupcast-top.
//
// What one publish looked like across processes needs no collector: every
// node's trace events carry the publish's trace ID, group, source and
// sequence, so filtering each node's /debug/trace (or -trace-file NDJSON) on
// them follows it hop by hop.
//
// The package depends only on wire and metrics — the node wires it
// into its epoch loop (internal/node/telemetry.go) and the introspection
// endpoint serves its snapshots.
package telemetry
