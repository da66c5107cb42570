package transport

import (
	"errors"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// TestBreakerLifecycle walks the full closed → open → half-open → open →
// half-open → closed state machine on the unit itself.
func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(2, 50*time.Millisecond, 400*time.Millisecond)
	if !b.allow() {
		t.Fatal("fresh breaker refused a send")
	}
	b.onFailure()
	if stateOf(b) != BreakerClosed {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	b.onFailure()
	if stateOf(b) != BreakerOpen {
		t.Fatal("threshold failures did not open the breaker")
	}
	if b.allow() {
		t.Fatal("open breaker admitted a send inside the backoff")
	}

	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("backoff elapsed but no probe admitted")
	}
	if stateOf(b) != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", stateOf(b))
	}
	if b.allow() {
		t.Fatal("second send admitted while probe in flight")
	}
	b.onFailure() // probe failed: reopen, backoff doubled
	snap := b.snapshot("x")
	if snap.State != "open" || snap.Trips != 2 {
		t.Fatalf("after failed probe: %+v, want open with 2 trips", snap)
	}
	if snap.BackoffMs != 100 {
		t.Fatalf("backoff after failed probe = %dms, want doubled to 100ms", snap.BackoffMs)
	}

	time.Sleep(110 * time.Millisecond)
	if !b.allow() {
		t.Fatal("doubled backoff elapsed but no probe admitted")
	}
	b.onSuccess()
	if stateOf(b) != BreakerClosed {
		t.Fatal("successful probe did not reclose the breaker")
	}
	if !b.allow() {
		t.Fatal("reclosed breaker refused a send")
	}
}

// TestBreakerDisabled: a negative threshold turns the breaker off entirely.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(-1, time.Millisecond, time.Millisecond)
	for i := 0; i < 10; i++ {
		b.onFailure()
		if !b.allow() {
			t.Fatal("disabled breaker refused a send")
		}
	}
	if stateOf(b) != BreakerClosed {
		t.Fatal("disabled breaker changed state")
	}
}

// TestBreakerBackoffCapped: the reopen backoff doubles per failed probe but
// never exceeds the max.
func TestBreakerBackoffCapped(t *testing.T) {
	b := newBreaker(1, 100*time.Millisecond, 250*time.Millisecond)
	b.onFailure() // trip: 100ms
	b.mu.Lock()
	b.state = BreakerHalfOpen // skip waiting out backoffs
	b.mu.Unlock()
	b.onFailure() // 200ms
	b.mu.Lock()
	b.state = BreakerHalfOpen
	b.mu.Unlock()
	b.onFailure() // capped at 250ms
	if got := b.snapshot("x").BackoffMs; got != 250 {
		t.Fatalf("backoff = %dms, want capped at 250ms", got)
	}
}

// TestTCPBreakerOpensOnDeadPeerAndRecovers: repeated dial failures (on the
// links' writers) open the breaker (sends then fail fast with ErrBreakerOpen and count as
// BreakerRejects); once the peer comes back, the half-open probe recloses
// it and traffic flows again.
func TestTCPBreakerOpensOnDeadPeerAndRecovers(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.DialTimeout = 500 * time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerBackoff = 150 * time.Millisecond
	a, err := ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A port that just went dead.
	dead, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	target := dead.Addr()
	dead.Close()

	// Send only enqueues; each link's writer fails its dial and counts it
	// against the breaker, so pace the sends until one is rejected.
	msg := wire.Message{Type: wire.TBeacon, GroupID: "g"}
	var sawBreakerOpen bool
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if errors.Is(a.Send(target, msg), ErrBreakerOpen) {
			sawBreakerOpen = true
			break
		}
	}
	if !sawBreakerOpen {
		t.Fatal("breaker never opened against a dead peer")
	}
	if got := a.DropStats().BreakerRejects; got == 0 {
		t.Fatalf("BreakerRejects = %d, want > 0", got)
	}
	brks := a.Breakers()
	if len(brks) != 1 || brks[0].Addr != target {
		t.Fatalf("Breakers() = %+v, want one entry for %s", brks, target)
	}
	if brks[0].State != "open" || brks[0].Trips == 0 {
		t.Fatalf("breaker snapshot = %+v, want open with trips > 0", brks[0])
	}

	// Bring the peer back on the same address (the OS may refuse the rebind;
	// give it a few tries like the reconnect test does).
	var revived *TCPTransport
	for i := 0; i < 50; i++ {
		revived, err = ListenTCPConfig(target, DefaultTCPConfig())
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if revived == nil {
		t.Skipf("could not rebind %s: %v", target, err)
	}
	defer revived.Close()

	// After the backoff the next allowed send is the half-open probe; its
	// success (observed by the writer goroutine) recloses the breaker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never reclosed after peer revival: %+v", a.Breakers())
		}
		_ = a.Send(target, msg)
		if brks := a.Breakers(); len(brks) == 1 && brks[0].State == "closed" {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	select {
	case got := <-revived.Recv():
		if got.Type != wire.TBeacon {
			t.Fatalf("revived peer got %v, want beacon", got.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("revived peer received nothing after breaker reclosed")
	}
}

// stateOf reads the breaker's position under its lock.
func stateOf(b *breaker) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
