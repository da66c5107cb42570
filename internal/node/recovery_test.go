package node

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// payloadLog records delivered payloads from one source, in arrival order.
type payloadLog struct {
	mu   sync.Mutex
	from string
	got  []string
}

func (l *payloadLog) handler(_ string, from wire.PeerInfo, data []byte) {
	if from.Addr != l.from {
		return
	}
	l.mu.Lock()
	l.got = append(l.got, string(data))
	l.mu.Unlock()
}

func (l *payloadLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.got)
}

func (l *payloadLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.got...)
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
	cfg.StateSaveEpochs = 2
	return cfg
}

// publishRange publishes msg-<lo>..msg-<hi>, retrying transient errors (the
// tree may still be re-forming after a restart) but never re-publishing a
// payload that was accepted — a retry after acceptance would consume a new
// sequence number and break the FIFO assertion downstream.
func publishRange(t *testing.T, nd *Node, gid string, lo, hi int) {
	t.Helper()
	for i := lo; i <= hi; i++ {
		payload := []byte(fmt.Sprintf("msg-%d", i))
		var err error
		deadline := time.Now().Add(testTimeout)
		for {
			if err = nd.Publish(gid, payload); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("publish msg-%d never accepted: %v", i, err)
			}
			time.Sleep(20 * time.Millisecond)
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
	mem := transport.NewMemNetwork()
	statePath := filepath.Join(t.TempDir(), "rdv.gcrs")

	rdvEP := mem.NextEndpoint()
	rdvAddr := rdvEP.Addr()
	rdv := New(rdvEP, recoveryConfig(1, statePath))
	rdv.Start()

	var subs []*Node
	var logs []*payloadLog
	for i := 0; i < 2; i++ {
		nd := New(mem.NextEndpoint(), recoveryConfig(int64(2+i), ""))
		l := &payloadLog{from: rdvAddr}
		nd.SetPayloadHandler(l.handler)
		nd.Start()
		if err := nd.Bootstrap([]string{rdvAddr}, testTimeout); err != nil {
			t.Fatalf("bootstrap sub%d: %v", i, err)
		}
		subs = append(subs, nd)
		logs = append(logs, l)
	}
	defer func() {
		for _, nd := range subs {
			_ = nd.Close()
		}
	}()

	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}
	for i, nd := range subs {
		joinEventually(t, nd, gid, testTimeout)
		_ = i
	}

	publishRange(t, rdv, gid, 1, 15)
	waitFor(t, testTimeout, func() bool {
		return logs[0].len() >= 15 && logs[1].len() >= 15
	}, static("first half not delivered to both subscribers"))

	// Crash the rendezvous. Close persists the final state (PubHigh = 15);
	// the down-time is long enough for both subscribers to declare the
	// neighbour dead and orphan their tree attachment, as in a real crash.
	if err := rdv.Close(); err != nil {
		t.Fatalf("close rdv: %v", err)
	}
	waitFor(t, testTimeout, func() bool {
		for _, nd := range subs {
			if tv := nd.Tree(gid); tv.Parent == rdvAddr {
				return false
			}
		}
		return true
	}, static("subscribers never noticed the rendezvous crash"))

	// Restart with the same identity and state file.
	rdvEP2, err := mem.Endpoint(rdvAddr)
	if err != nil {
		t.Fatalf("reclaim endpoint: %v", err)
	}
	rdv2 := New(rdvEP2, recoveryConfig(1, statePath))
	defer rdv2.Close()
	rv := rdv2.RecoveryView()
	if !rv.Restored || rdv2.Stats().StateRestores != 1 {
		t.Fatalf("restart did not restore state: %+v", rv)
	}
	if len(rv.RestoredGroups) != 1 || rv.RestoredGroups[0] != gid {
		t.Fatalf("restored groups = %v, want [%s]", rv.RestoredGroups, gid)
	}
	rdv2.Start()
	if err := rdv2.Bootstrap([]string{subs[0].Addr(), subs[1].Addr()}, testTimeout); err != nil {
		t.Fatalf("re-bootstrap: %v", err)
	}
	if err := rdv2.RecoverGroups(testTimeout); err != nil {
		t.Fatalf("RecoverGroups: %v", err)
	}

	// Wait for the tree to re-form under the restarted root: it has at least
	// one direct child and every subscriber is attached (possibly through
	// the other subscriber via its backup access point).
	waitFor(t, 2*testTimeout, func() bool {
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

	publishRange(t, rdv2, gid, 16, 30)
	waitFor(t, 2*testTimeout, func() bool {
		return logs[0].len() >= 30 && logs[1].len() >= 30
	}, static("second half not delivered to both subscribers"))

	for i, l := range logs {
		assertFIFO(t, fmt.Sprintf("sub%d", i), l.snapshot(), 1, 30)
	}
}

// TestRestartMemberResumesWindowWithoutResync restarts a subscriber instead:
// its persisted per-source high-water mark must seed the rebuilt receive
// window so post-restart traffic continues from message 16 — with no replay
// of the pre-crash half (an unseeded ordered window would open gaps 1..15,
// NACK a full resync, and re-deliver old traffic to the application).
func TestRestartMemberResumesWindowWithoutResync(t *testing.T) {
	const gid = "restart-member"
	mem := transport.NewMemNetwork()
	statePath := filepath.Join(t.TempDir(), "sub.gcrs")

	rdv := New(mem.NextEndpoint(), recoveryConfig(1, ""))
	rdv.Start()
	defer rdv.Close()
	if err := rdv.CreateGroupMode(gid, wire.ReliableOrdered); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		t.Fatal(err)
	}

	subEP := mem.NextEndpoint()
	subAddr := subEP.Addr()
	sub := New(subEP, recoveryConfig(2, statePath))
	l := &payloadLog{from: rdv.Addr()}
	sub.SetPayloadHandler(l.handler)
	sub.Start()
	if err := sub.Bootstrap([]string{rdv.Addr()}, testTimeout); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	joinEventually(t, sub, gid, testTimeout)

	publishRange(t, rdv, gid, 1, 15)
	waitFor(t, testTimeout, func() bool { return l.len() >= 15 }, static("first half not delivered"))
	assertFIFO(t, "sub before restart", l.snapshot(), 1, 15)

	if err := sub.Close(); err != nil {
		t.Fatalf("close sub: %v", err)
	}

	subEP2, err := mem.Endpoint(subAddr)
	if err != nil {
		t.Fatalf("reclaim endpoint: %v", err)
	}
	sub2 := New(subEP2, recoveryConfig(2, statePath))
	defer sub2.Close()
	if !sub2.RecoveryView().Restored {
		t.Fatal("restart did not restore state")
	}
	l2 := &payloadLog{from: rdv.Addr()}
	sub2.SetPayloadHandler(l2.handler)
	sub2.Start()
	if err := sub2.Bootstrap([]string{rdv.Addr()}, testTimeout); err != nil {
		t.Fatalf("re-bootstrap: %v", err)
	}
	if err := sub2.RecoverGroups(testTimeout); err != nil {
		t.Fatalf("RecoverGroups: %v", err)
	}
	waitFor(t, 2*testTimeout, func() bool { return sub2.Tree(gid).Attached }, static("restarted member never re-attached"))

	publishRange(t, rdv, gid, 16, 30)
	waitFor(t, 2*testTimeout, func() bool { return l2.len() >= 15 }, static("second half not delivered after restart"))
	// Give any wrongly resynced replay a moment to surface before asserting.
	time.Sleep(200 * time.Millisecond)
	assertFIFO(t, "sub after restart", l2.snapshot(), 16, 30)
}

// TestStateFileLifecycle pins the save cadence and the cold-path guards:
// periodic saves land on disk at StateSaveEpochs, a node without StatePath
// never writes or restores, and a state file for a different identity is
// ignored rather than applied.
func TestStateFileLifecycle(t *testing.T) {
	mem := transport.NewMemNetwork()
	dir := t.TempDir()
	statePath := filepath.Join(dir, "node.gcrs")

	nd := New(mem.NextEndpoint(), recoveryConfig(1, statePath))
	addr := nd.Addr()
	nd.Start()
	if err := nd.CreateGroupMode("g", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, func() bool { return nd.Stats().StateSaves >= 2 }, static("periodic saves never ran"))
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
	other := New(mem.NextEndpoint(), recoveryConfig(9, foreignPath))
	if other.RecoveryView().Restored {
		t.Fatal("foreign state file was restored")
	}
	_ = other.Close()

	// Same identity: restored, with the group and epoch carried over.
	ep, err := mem.Endpoint(addr)
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
	inert := New(mem.NextEndpoint(), recoveryConfig(3, ""))
	inert.Start()
	time.Sleep(150 * time.Millisecond)
	if s := inert.Stats(); s.StateSaves != 0 || s.StateRestores != 0 {
		t.Fatalf("stateless node touched the recovery plane: %+v", s)
	}
	_ = inert.Close()
}
