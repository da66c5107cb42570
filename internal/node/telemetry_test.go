package node

import (
	"fmt"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/telemetry"
	"groupcast/internal/trace"
	"groupcast/internal/wire"
)

// buildTelemetryCluster boots n driven nodes with fast heartbeats and a
// group tree rooted at node 0, so digests ride both the heartbeat and
// beacon planes.
func buildTelemetryCluster(t *testing.T, count int) *driven {
	t.Helper()
	c := newDriven(t, 0, 1, nil)
	for i := 0; i < count; i++ {
		cfg := DefaultConfig(10, coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 40 * time.Millisecond
		cfg.OverloadSampleInterval = 20 * time.Millisecond
		cfg.Tracer = trace.New(256, nil)
		contacts := nodeAddrs(c.nodes)
		if err := c.node(t, cfg).Bootstrap(contacts, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	rdv := c.nodes[0]
	if err := rdv.CreateGroupMode("tg", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("tg"); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	for _, m := range c.nodes[1:] {
		var err error
		for attempt := 0; attempt < 6; attempt++ {
			if err = m.Join("tg", time.Second); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestTelemetryFleetConverges proves the gossiped fleet view: every node
// ends up holding a fresh, epoch-advancing digest for every other node
// purely from heartbeat/beacon piggybacks, and the digest counters move.
func TestTelemetryFleetConverges(t *testing.T) {
	c := buildTelemetryCluster(t, 4)
	nodes := c.nodes
	c.waitFor(t, 5*time.Second, func() bool {
		for _, nd := range nodes {
			fresh := 0
			for _, nh := range nd.FleetView() {
				if nh.Epoch > 0 && !nh.Stale {
					fresh++
				}
			}
			if fresh < len(nodes) {
				return false
			}
		}
		return true
	}, func() string {
		for _, nd := range nodes {
			t.Logf("%s view: %+v", nd.Addr(), nd.FleetView())
		}
		return "fleet views did not converge to all-fresh in 5s"
	})
	for _, nd := range nodes {
		st := nd.Stats()
		if st.TelemetryDigestsSent == 0 || st.TelemetryDigestsReceived == 0 {
			t.Errorf("%s digest counters idle: sent=%d recv=%d",
				nd.Addr(), st.TelemetryDigestsSent, st.TelemetryDigestsReceived)
		}
		if len(nd.TelemetryHistory()) == 0 {
			t.Errorf("%s has no history samples", nd.Addr())
		}
		cv := nd.ClusterView()
		if !cv.Enabled || cv.Epoch == 0 || len(cv.Nodes) < len(nodes) {
			t.Errorf("%s ClusterView = %+v", nd.Addr(), cv)
		}
	}
}

// TestTelemetryCrashDetection proves the crash-stop path end to end inside
// one process: kill one member and the survivors' fleet views mark it stale
// and fire the stale SLO alert within the staleness window.
func TestTelemetryCrashDetection(t *testing.T) {
	c := buildTelemetryCluster(t, 3)
	nodes := c.nodes
	victim := nodes[2].Addr()

	// Wait until both survivors know the victim fresh.
	c.waitFor(t, 5*time.Second, func() bool {
		known := 0
		for _, nd := range nodes[:2] {
			for _, nh := range nd.FleetView() {
				if nh.Addr == victim && nh.Epoch > 0 && !nh.Stale {
					known++
				}
			}
		}
		return known == 2
	}, static("survivors never learned the victim's digest"))

	_ = nodes[2].Close()

	c.waitFor(t, 5*time.Second, func() bool {
		alerted := 0
		for _, nd := range nodes[:2] {
			for _, a := range nd.SLOActive() {
				if a.Rule == telemetry.RuleStale && a.Node == victim {
					alerted++
				}
			}
		}
		return alerted == 2
	}, func() string {
		for _, nd := range nodes[:2] {
			t.Logf("%s alerts: %+v view: %+v", nd.Addr(), nd.SLOActive(), nd.FleetView())
		}
		return "stale alert for the crashed node never fired on both survivors"
	})
	// The alert must also be in the trace ring as a structured event.
	found := false
	for _, ev := range nodes[0].TraceEvents(0) {
		if ev.Kind == trace.KindAlert && ev.Msg == telemetry.RuleStale && ev.Peer == victim {
			found = true
			break
		}
	}
	if !found {
		t.Error("no KindAlert stale event in the survivor's trace ring")
	}
	if nodes[0].Stats().SLOAlerts == 0 {
		t.Error("SLOAlerts counter did not move")
	}
}

// TestTelemetryDisabled pins the opt-out: no fleet state, no Health on the
// wire, and the heartbeat encoding is byte-identical to a pre-telemetry
// node's.
func TestTelemetryDisabled(t *testing.T) {
	cfg := DefaultConfig(10, coords.Point{0, 0}, 1)
	cfg.DisableTelemetry = true
	nd := newDriven(t, 0, 1, nil).node(t, cfg)
	if nd.FleetView() != nil || nd.TelemetryHistory() != nil || nd.SLOActive() != nil {
		t.Fatal("disabled telemetry still returns state")
	}
	if h := nd.telemetryHealth(); h != nil {
		t.Fatalf("disabled telemetry still piggybacks %d digests", len(h))
	}
	if cv := nd.ClusterView(); cv.Enabled {
		t.Fatal("ClusterView claims enabled")
	}
}

// TestFleetEvictionForgetsSLO: a node the fleet view evicts to stay within
// its bound (1024 nodes) leaves the SLO with it. Each of 1025 peers sends
// three over-pressure digests, so each raises a pressure alert; the first
// peer is the longest unseen when the last arrives and is evicted. Its
// alert must go with it, and the SLO must hold no more nodes than the view.
func TestFleetEvictionForgetsSLO(t *testing.T) {
	const fleetBound = 1024
	n := New(stubEndpoint(), DefaultConfig(10, nil, 1))
	defer n.Close()
	t0 := time.Unix(1700000000, 0)
	for i := 0; i <= fleetBound; i++ {
		addr := fmt.Sprintf("peer-%04d:1", i)
		var msg wire.Message
		for epoch := uint64(1); epoch <= 3; epoch++ {
			msg.Health = append(msg.Health, wire.HealthDigest{Addr: addr, Epoch: epoch, Pressure: 0.95})
		}
		stepAt(n, t0.Add(time.Duration(i)*time.Second), event{flow: func() { n.observeHealth(msg) }})
	}
	active := n.telemetry.slo.Active()
	for _, a := range active {
		if a.Node == "peer-0000:1" {
			t.Fatalf("the evicted peer's %s alert is still firing", a.Rule)
		}
	}
	if len(active) > fleetBound || n.telemetry.fleet.Len() > fleetBound {
		t.Fatalf("the SLO holds %d firing nodes and the view %d, want at most %d",
			len(active), n.telemetry.fleet.Len(), fleetBound)
	}
	if len(active) < fleetBound-1 {
		t.Fatalf("only %d of the view's peers fire; the test needs every one firing", len(active))
	}
}
