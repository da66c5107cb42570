package node

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/wire"
)

// payloadLog records delivered payloads from one source, in arrival order.
type payloadLog struct {
	from string
	got  []string
}

func (l *payloadLog) handler(_ string, from wire.PeerInfo, data []byte) {
	if from.Addr == l.from {
		l.got = append(l.got, string(data))
	}
}

// assertFIFO fails unless got is exactly msg-<lo>..msg-<hi> in order — no
// gap, no duplicate, no reordering, no replay of earlier traffic.
func assertFIFO(t *testing.T, who string, got []string, lo, hi int) {
	t.Helper()
	if len(got) != hi-lo+1 {
		t.Fatalf("%s delivered %d payloads, want %d: %v", who, len(got), hi-lo+1, got)
	}
	for i, g := range got {
		if want := fmt.Sprintf("msg-%d", lo+i); g != want {
			t.Fatalf("%s FIFO violation at %d: got %q, want %q (full: %v)", who, i, g, want, got)
		}
	}
}

// recoveryConfig is the shared shape of the restart tests: fast epochs so
// failure detection and digests run inside the test budget, succession off
// so a crashed root stays crashed until its restart (the deputy interplay
// has its own tests), and ordered delivery so any resync or renumbering
// after the restart surfaces as a FIFO violation.
func recoveryConfig(seq int64, statePath string) Config {
	cfg := DefaultConfig(50, coords.Point{float64(seq), 0}, seq)
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.Deputies = -1
	cfg.StatePath = statePath
	return cfg
}

// publishRange publishes msg-<lo>..msg-<hi>, retrying transient errors (the
// tree may still be re-forming after a restart) but never re-publishing a
// payload that was accepted — a retry after acceptance would consume a new
// sequence number and break the FIFO assertion downstream.
func publishRange(t *testing.T, c *driven, nd *Node, gid string, lo, hi int) {
	t.Helper()
	for i := lo; i <= hi; i++ {
		payload := []byte(fmt.Sprintf("msg-%d", i))
		var err error
		deadline := c.Now().Add(testTimeout)
		for {
			if err = nd.Publish(gid, payload); err == nil {
				break
			}
			if c.Now().After(deadline) {
				t.Fatalf("publish msg-%d never accepted: %v", i, err)
			}
			c.Run(20 * time.Millisecond)
		}
	}
}

// TestRestartRendezvousResumesFIFO is the acceptance soak for crash–restart
// recovery (run it with -race): a rendezvous that crashes mid-stream and
// restarts from its state file must resume publishing at the next sequence
// number — its SendBuffer seeded from the persisted high-water mark — so
// subscribers' ordered windows deliver the full 30-message stream in order
// across the crash. A restart that lost the counter would republish from
// sequence 1 and the ordered windows would reject the whole second half.
func TestRestartRendezvousResumesFIFO(t *testing.T) {
	const gid = "restart-fifo"
	c := newDriven(t, 0, 1, nil)
	statePath := filepath.Join(t.TempDir(), "rdv.gcrs")

	rdv := c.node(t, recoveryConfig(1, statePath))
	rdvAddr := rdv.Addr()

	var subs []*Node
	var logs []*payloadLog
	for i := 0; i < 2; i++ {
		nd := c.node(t, recoveryConfig(int64(2+i), ""))
		l := &payloadLog{from: rdvAddr}
		nd.SetPayloadHandler(l.handler)
		if err := nd.Bootstrap([]string{rdvAddr}, testTimeout); err != nil {
			t.Fatalf("bootstrap sub%d: %v", i, err)
		}
		subs = append(subs, nd)
		logs = append(logs, l)
	}

	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}
	for _, nd := range subs {
		c.joinEventually(t, nd, gid, testTimeout)
	}

	publishRange(t, c, rdv, gid, 1, 15)
	c.waitFor(t, testTimeout, func() bool {
		return len(logs[0].got) >= 15 && len(logs[1].got) >= 15
	}, static("first half not delivered to both subscribers"))

	// Crash the rendezvous. Close persists the final state (PubHigh = 15);
	// the down-time is long enough for both subscribers to declare the
	// neighbour dead and orphan their tree attachment, as in a real crash.
	if err := rdv.Close(); err != nil {
		t.Fatalf("close rdv: %v", err)
	}
	c.waitFor(t, testTimeout, func() bool {
		for _, nd := range subs {
			if tv := nd.Tree(gid); tv.Parent == rdvAddr {
				return false
			}
		}
		return true
	}, static("subscribers never noticed the rendezvous crash"))

	// Restart with the same identity and state file.
	rdvEP2, err := c.Endpoint(rdvAddr)
	if err != nil {
		t.Fatalf("reclaim endpoint: %v", err)
	}
	rdv2 := New(c.chaos.Wrap(rdvEP2), recoveryConfig(1, statePath))
	defer rdv2.Close() // waits out its state writes before the temp dir goes
	rv := rdv2.RecoveryView()
	if !rv.Restored || rdv2.Stats().StateRestores != 1 {
		t.Fatalf("restart did not restore state: %+v", rv)
	}
	if len(rv.RestoredGroups) != 1 || rv.RestoredGroups[0] != gid {
		t.Fatalf("restored groups = %v, want [%s]", rv.RestoredGroups, gid)
	}
	c.Start(rdv2)
	if err := rdv2.Bootstrap([]string{subs[0].Addr(), subs[1].Addr()}, testTimeout); err != nil {
		t.Fatalf("re-bootstrap: %v", err)
	}
	if err := rdv2.RecoverGroups(testTimeout); err != nil {
		t.Fatalf("RecoverGroups: %v", err)
	}

	// Wait for the tree to re-form under the restarted root: it has at least
	// one direct child and every subscriber is attached (possibly through
	// the other subscriber via its backup access point).
	c.waitFor(t, 2*testTimeout, func() bool {
		if len(rdv2.Tree(gid).Children) == 0 {
			return false
		}
		for _, nd := range subs {
			if !nd.Tree(gid).Attached {
				return false
			}
		}
		return true
	}, static("tree never re-formed under the restarted rendezvous"))

	publishRange(t, c, rdv2, gid, 16, 30)
	c.waitFor(t, 2*testTimeout, func() bool {
		return len(logs[0].got) >= 30 && len(logs[1].got) >= 30
	}, static("second half not delivered to both subscribers"))

	for i, l := range logs {
		assertFIFO(t, fmt.Sprintf("sub%d", i), l.got, 1, 30)
	}
}

// TestRestartMemberResumesWindowWithoutResync restarts a subscriber instead:
// its persisted per-source high-water mark must seed the rebuilt receive
// window so post-restart traffic continues from message 16 — with no replay
// of the pre-crash half (an unseeded ordered window would open gaps 1..15,
// NACK a full resync, and re-deliver old traffic to the application).
func TestRestartMemberResumesWindowWithoutResync(t *testing.T) {
	const gid = "restart-member"
	c := newDriven(t, 0, 1, nil)
	statePath := filepath.Join(t.TempDir(), "sub.gcrs")

	rdv := c.node(t, recoveryConfig(1, ""))
	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}

	sub := c.node(t, recoveryConfig(2, statePath))
	subAddr := sub.Addr()
	l := &payloadLog{from: rdv.Addr()}
	sub.SetPayloadHandler(l.handler)
	if err := sub.Bootstrap([]string{rdv.Addr()}, testTimeout); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	c.joinEventually(t, sub, gid, testTimeout)

	publishRange(t, c, rdv, gid, 1, 15)
	c.waitFor(t, testTimeout, func() bool { return len(l.got) >= 15 }, static("first half not delivered"))
	assertFIFO(t, "sub before restart", l.got, 1, 15)

	if err := sub.Close(); err != nil {
		t.Fatalf("close sub: %v", err)
	}

	subEP2, err := c.Endpoint(subAddr)
	if err != nil {
		t.Fatalf("reclaim endpoint: %v", err)
	}
	sub2 := New(c.chaos.Wrap(subEP2), recoveryConfig(2, statePath))
	defer sub2.Close() // waits out its state writes before the temp dir goes
	if !sub2.RecoveryView().Restored {
		t.Fatal("restart did not restore state")
	}
	l2 := &payloadLog{from: rdv.Addr()}
	sub2.SetPayloadHandler(l2.handler)
	c.Start(sub2)
	if err := sub2.Bootstrap([]string{rdv.Addr()}, testTimeout); err != nil {
		t.Fatalf("re-bootstrap: %v", err)
	}
	if err := sub2.RecoverGroups(testTimeout); err != nil {
		t.Fatalf("RecoverGroups: %v", err)
	}
	c.waitFor(t, 2*testTimeout, func() bool { return sub2.Tree(gid).Attached }, static("restarted member never re-attached"))

	publishRange(t, c, rdv, gid, 16, 30)
	c.waitFor(t, 2*testTimeout, func() bool { return len(l2.got) >= 15 }, static("second half not delivered after restart"))
	// Give any wrongly resynced replay a moment to surface before asserting.
	c.Run(200 * time.Millisecond)
	assertFIFO(t, "sub after restart", l2.got, 16, 30)
}

// TestStateFileLifecycle pins the save cadence and the cold-path guards:
// periodic saves land on disk every stateSaveEpochs, a node without StatePath
// never writes or restores, and a state file for a different identity is
// ignored rather than applied.
func TestStateFileLifecycle(t *testing.T) {
	c := newDriven(t, 0, 1, nil)
	dir := t.TempDir()
	statePath := filepath.Join(dir, "node.gcrs")

	nd := c.node(t, recoveryConfig(1, statePath))
	addr := nd.Addr()
	if err := nd.CreateGroupMode("g", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	// A save writes the file on a goroutine of its own. Each step waits for
	// the write in flight before it moves the clock, so no save epoch finds
	// the last one still running.
	c.waitFor(t, testTimeout, func() bool {
		for nd.saving.Load() {
			runtime.Gosched()
		}
		return nd.Stats().StateSaves >= 2
	}, static("periodic saves never ran"))
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}

	// Different identity, same file (copied, since the foreign node's own
	// Close overwrites its path): the state must not be applied.
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	foreignPath := filepath.Join(dir, "foreign.gcrs")
	if err := os.WriteFile(foreignPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	other := New(stubEndpoint(), recoveryConfig(9, foreignPath))
	if other.RecoveryView().Restored {
		t.Fatal("foreign state file was restored")
	}
	_ = other.Close()

	// Same identity: restored, with the group and epoch carried over.
	ep, err := c.Endpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	again := New(ep, recoveryConfig(1, statePath))
	defer again.Close()
	rv := again.RecoveryView()
	if !rv.Restored || rv.RestoredEpoch == 0 {
		t.Fatalf("restart did not restore: %+v", rv)
	}
	if tv := again.Tree("g"); !tv.Exists || !tv.Rendezvous {
		t.Fatalf("restored group state missing: %+v", tv)
	}

	// No StatePath: the whole plane is inert.
	inert := c.node(t, recoveryConfig(3, ""))
	c.Run(150 * time.Millisecond)
	if s := inert.Stats(); s.StateSaves != 0 || s.StateRestores != 0 {
		t.Fatalf("stateless node touched the recovery plane: %+v", s)
	}
	_ = inert.Close()
}
