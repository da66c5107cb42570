package reliable

import (
	"fmt"
	"testing"
	"time"
)

func pol() NackPolicy {
	return NackPolicy{
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		MaxAttempts: 3,
		MaxBatch:    8,
	}
}

func observe(w *SourceWindow, seq uint64, now time.Time) ObserveResult {
	var res ObserveResult
	w.ObserveItem(seq, Item{Data: []byte(fmt.Sprintf("p%d", seq))}, now, &res)
	return res
}

func TestSendBufferSequencesAndRetains(t *testing.T) {
	b := NewSendBuffer(4)
	for i := 1; i <= 6; i++ {
		if got := b.NextItem(Item{Data: []byte{byte(i)}}); got != uint64(i) {
			t.Fatalf("NextItem = %d, want %d", got, i)
		}
	}
	if b.High() != 6 {
		t.Fatalf("High = %d", b.High())
	}
	if _, ok := b.GetItem(1); ok {
		t.Fatal("seq 1 should have been evicted (capacity 4)")
	}
	if item, ok := b.GetItem(5); !ok || item.Data[0] != 5 {
		t.Fatalf("GetItem(5) = %v %v", item, ok)
	}
	if b.Cached() > 4 {
		t.Fatalf("Cached = %d > capacity", b.Cached())
	}
}

func TestWindowDedupAndGapLifecycle(t *testing.T) {
	now := time.Now()
	w := NewSourceWindow(64, 16, false, true)

	if res := observe(w, 1, now); !res.Fresh || len(res.Deliver) != 1 {
		t.Fatalf("first arrival: %+v", res)
	}
	if res := observe(w, 1, now); res.Fresh {
		t.Fatal("duplicate not detected")
	}
	// Jump 1 → 4 opens gaps 2, 3.
	res := observe(w, 4, now)
	if !res.Fresh || res.GapsOpened != 2 || w.PendingGaps() != 2 {
		t.Fatalf("gap open: %+v, pending=%d", res, w.PendingGaps())
	}
	// Arrival of 2 inside the grace recovers that gap without a NACK.
	var sweep ObserveResult
	if due := w.DueGaps(now.Add(pol().BaseDelay/2), pol(), &sweep); len(due) != 0 {
		t.Fatalf("NACKed in-flight data before BaseDelay: %v", due)
	}
	if res := observe(w, 2, now); !res.Fresh || res.GapsRecovered != 1 || len(res.RecoveredAfter) != 0 {
		t.Fatalf("gap recover: %+v", res)
	}
	// The remaining gap's first NACK is due at BaseDelay after detection.
	due := w.DueGaps(now.Add(pol().BaseDelay), pol(), &sweep)
	if len(due) != 1 || due[0] != 3 {
		t.Fatalf("due = %v", due)
	}
	// Backoff: not due again until BaseDelay passes.
	if due := w.DueGaps(now.Add(pol().BaseDelay+time.Millisecond), pol(), &sweep); len(due) != 0 {
		t.Fatalf("due again too soon: %v", due)
	}
	if due := w.DueGaps(now.Add(30*time.Millisecond), pol(), &sweep); len(due) != 1 {
		t.Fatalf("backoff never expired: %v", due)
	}
	// Third attempt, then abandonment.
	w.DueGaps(now.Add(time.Second), pol(), &sweep)
	var last ObserveResult
	if due := w.DueGaps(now.Add(2*time.Second), pol(), &last); len(due) != 0 || last.GapsAbandoned != 1 {
		t.Fatalf("abandonment: due=%v res=%+v", due, last)
	}
	if w.PendingGaps() != 0 {
		t.Fatalf("gaps remain: %d", w.PendingGaps())
	}
}

func TestWindowOrderedRelease(t *testing.T) {
	now := time.Now()
	w := NewSourceWindow(64, 16, true, true)

	if res := observe(w, 1, now); len(res.Deliver) != 1 || res.Deliver[0].Seq != 1 {
		t.Fatalf("seq 1: %+v", res)
	}
	// 3 and 4 arrive before 2: held back.
	if res := observe(w, 3, now); len(res.Deliver) != 0 {
		t.Fatalf("seq 3 released early: %+v", res)
	}
	if res := observe(w, 4, now); len(res.Deliver) != 0 {
		t.Fatalf("seq 4 released early: %+v", res)
	}
	if w.PendingOrdered() != 2 {
		t.Fatalf("pending = %d", w.PendingOrdered())
	}
	// 2 arrives: 2, 3, 4 release in order.
	res := observe(w, 2, now)
	want := []uint64{2, 3, 4}
	if len(res.Deliver) != len(want) {
		t.Fatalf("release: %+v", res)
	}
	for i, d := range res.Deliver {
		if d.Seq != want[i] {
			t.Fatalf("release order %v", res.Deliver)
		}
	}
}

func TestWindowOrderedSkipsAbandonedGap(t *testing.T) {
	now := time.Now()
	w := NewSourceWindow(64, 16, true, true)
	observe(w, 1, now)
	observe(w, 3, now) // gap at 2
	p := pol()
	var res ObserveResult
	for i := 0; i < p.MaxAttempts+1; i++ {
		w.DueGaps(now.Add(time.Duration(i+1)*time.Second), p, &res)
	}
	if res.GapsAbandoned != 1 {
		t.Fatalf("gap not abandoned: %+v", res)
	}
	// Abandonment released the held payload 3.
	if len(res.Deliver) != 1 || res.Deliver[0].Seq != 3 {
		t.Fatalf("skip release: %+v", res.Deliver)
	}
	// And the stream continues normally.
	if r := observe(w, 4, now); len(r.Deliver) != 1 || r.Deliver[0].Seq != 4 {
		t.Fatalf("post-skip: %+v", r)
	}
}

func TestWindowNoteAdvertisedOpensTailGaps(t *testing.T) {
	now := time.Now()
	w := NewSourceWindow(64, 16, false, true)
	observe(w, 1, now)
	observe(w, 2, now)
	// A digest says the source is at 5: 3, 4, 5 are all missing.
	var res ObserveResult
	w.NoteAdvertised(5, now, &res)
	if res.GapsOpened != 3 || w.PendingGaps() != 3 {
		t.Fatalf("tail gaps: %+v pending=%d", res, w.PendingGaps())
	}
	// A stale digest is a no-op.
	var res2 ObserveResult
	w.NoteAdvertised(4, now, &res2)
	if res2.GapsOpened != 0 {
		t.Fatalf("stale digest opened gaps: %+v", res2)
	}
	// Receiving 5 after the digest is fresh, not a duplicate.
	if r := observe(w, 5, now); !r.Fresh || r.GapsRecovered != 1 {
		t.Fatalf("advertised seq arrival: %+v", r)
	}
}

func TestWindowStateStaysBounded(t *testing.T) {
	now := time.Now()
	const span, cacheCap = 32, 8
	w := NewSourceWindow(span, cacheCap, true, true)
	// A long lossy stream: every 7th sequence never arrives.
	for s := uint64(1); s <= 10000; s++ {
		if s%7 == 0 {
			continue
		}
		observe(w, s, now)
		now = now.Add(time.Millisecond)
	}
	if w.Tracked() > span {
		t.Fatalf("received set %d exceeds span %d", w.Tracked(), span)
	}
	if w.Cached() > cacheCap {
		t.Fatalf("cache %d exceeds cap %d", w.Cached(), cacheCap)
	}
	if w.PendingGaps() > span {
		t.Fatalf("gaps %d exceed span %d", w.PendingGaps(), span)
	}
	if w.PendingOrdered() > span {
		t.Fatalf("pending %d exceeds span %d", w.PendingOrdered(), span)
	}
	// Sliding past unrecovered gaps must still release the stream.
	var res ObserveResult
	w.ObserveItem(10001, Item{Data: []byte("x")}, now, &res)
	if len(res.Deliver) == 0 && w.PendingOrdered() > span {
		t.Fatal("ordered stream wedged")
	}
	// An ancient retransmission is dropped as out-of-window.
	var late ObserveResult
	w.ObserveItem(3, Item{Data: []byte("late")}, now, &late)
	if late.Fresh || late.OutOfWindow != 1 {
		t.Fatalf("late retransmission: %+v", late)
	}
}

func TestPayloadCacheRingSemantics(t *testing.T) {
	c := NewPayloadCache(4)
	c.PutItem(1, Item{Data: []byte("a")})
	c.PutItem(5, Item{Data: []byte("b")}) // same slot as 1: evicts it
	if _, ok := c.GetItem(1); ok {
		t.Fatal("evicted seq still present")
	}
	c.PutItem(1, Item{Data: []byte("stale")}) // older than resident 5: refused
	if _, ok := c.GetItem(1); ok {
		t.Fatal("older seq overwrote newer")
	}
	if item, ok := c.GetItem(5); !ok || string(item.Data) != "b" {
		t.Fatalf("GetItem(5) = %q %v", item.Data, ok)
	}
	if len(c.slots) != 4 || c.Len() != 1 {
		t.Fatalf("slots=%d Len=%d", len(c.slots), c.Len())
	}
}

func TestSendBufferSeedResumesNumbering(t *testing.T) {
	b := NewSendBuffer(4)
	b.Seed(30)
	if b.High() != 30 {
		t.Fatalf("High after Seed = %d, want 30", b.High())
	}
	if got := b.NextItem(Item{Data: []byte("x")}); got != 31 {
		t.Fatalf("NextItem after Seed = %d, want 31", got)
	}
	// Seeding backwards must never rewind the sequencer.
	b.Seed(5)
	if got := b.NextItem(Item{Data: []byte("y")}); got != 32 {
		t.Fatalf("NextItem after backward Seed = %d, want 32", got)
	}
}

func TestWindowSeedResumesWithoutResync(t *testing.T) {
	now := time.Now()
	w := NewSourceWindow(64, 16, true, true)
	w.Seed(30)
	if w.High() != 30 {
		t.Fatalf("High after Seed = %d, want 30", w.High())
	}
	// The persisted history must not reopen as gaps, and the next in-order
	// sequence must release immediately.
	res := observe(w, 31, now)
	if !res.Fresh || res.GapsOpened != 0 || len(res.Deliver) != 1 || res.Deliver[0].Seq != 31 {
		t.Fatalf("first post-restart arrival: %+v", res)
	}
	// Pre-restart sequences are already-released history, not fresh traffic.
	if res := observe(w, 30, now); res.Fresh || res.OutOfWindow != 1 {
		t.Fatalf("pre-restart duplicate: %+v", res)
	}
	// A skip after the seed still opens gaps and holds ordering as usual.
	res = observe(w, 34, now)
	if res.GapsOpened != 2 || len(res.Deliver) != 0 {
		t.Fatalf("post-seed skip: %+v", res)
	}
	// Seed on a window that has observed traffic is a no-op.
	w.Seed(100)
	if w.High() != 34 {
		t.Fatalf("Seed on live window moved high to %d", w.High())
	}
}
