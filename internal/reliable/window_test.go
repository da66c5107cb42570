package reliable

import (
	"fmt"
	"math"
	"reflect"
	"sort"
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

func TestPayloadCacheLenCountsFullSlots(t *testing.T) {
	c := NewPayloadCache(8)
	for i, seq := range []uint64{3, 11, 4, 3, 20, 2, 9, 9, 40, 1} {
		c.PutItem(seq, Item{Data: []byte{byte(i)}})
		full := 0
		for _, s := range c.slots {
			if s.full {
				full++
			}
		}
		if c.Len() != full {
			t.Fatalf("after put %d: Len = %d, full slots = %d", seq, c.Len(), full)
		}
	}
}

func TestWindowLargeJumpIsBounded(t *testing.T) {
	const span = 1024
	for _, m := range windowModes {
		t.Run(m.name, func(t *testing.T) {
			start := time.Now()
			now := start
			w := NewSourceWindow(span, 256, m.ordered, m.reliable)
			observe(w, 1, now)

			var res ObserveResult
			w.NoteAdvertised(1<<40, now, &res)
			if w.High() != 1<<40 || w.PendingGaps() > span || w.Tracked() > span {
				t.Fatalf("after digest jump: high=%d gaps=%d tracked=%d", w.High(), w.PendingGaps(), w.Tracked())
			}
			if r := observe(w, 1<<62, now); !r.Fresh {
				t.Fatalf("payload jump not fresh: %+v", r)
			}
			if w.PendingGaps() > span || w.Tracked() > span {
				t.Fatalf("after payload jump: gaps=%d tracked=%d", w.PendingGaps(), w.Tracked())
			}
			r := observe(w, 1<<62+1, now)
			if !r.Fresh || (!m.ordered && len(r.Deliver) != 1) {
				t.Fatalf("next in-order sequence: %+v", r)
			}
			// The top sequence is refused, so no cursor or loop wraps.
			if r := observe(w, math.MaxUint64, now); r.Fresh || r.OutOfWindow != 1 {
				t.Fatalf("top sequence: %+v", r)
			}
			w.NoteAdvertised(math.MaxUint64, now, &res)
			if w.High() != 1<<62+1 {
				t.Fatalf("top digest moved high to %d", w.High())
			}
			// Each jump walks at most span sequences; a walk over the skipped
			// range would take hours.
			if el := time.Since(start); el > time.Second {
				t.Fatalf("jumps took %v", el)
			}
		})
	}
}

var windowModes = []struct {
	name              string
	ordered, reliable bool
}{
	{"best-effort", false, false},
	{"reliable", false, true},
	{"reliable-ordered", true, true},
}

// FuzzSourceWindow drives the window and refWindow, its map-based reference
// copy, through the same operations and fails on any difference in
// what they report or release. The first byte picks the span and the mode
// pair, and whether the next byte is a Seed; each following pair of bytes
// is one operation and its argument.
func FuzzSourceWindow(f *testing.F) {
	f.Add([]byte{13, 0, 0, 0, 0, 2, 3, 1, 1, 3, 6, 6, 200, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		spans := []int{2, 63, 64, 65, 1024}
		span := spans[int(data[0])%len(spans)]
		m := windowModes[int(data[0])/len(spans)%len(windowModes)]
		w := NewSourceWindow(span, 16, m.ordered, m.reliable)
		ref := newRefWindow(span, 16, m.ordered, m.reliable)
		if data[0]/15%2 == 1 && len(data) > 1 {
			w.Seed(uint64(data[1]))
			ref.seed(uint64(data[1]))
			data = data[1:]
		}
		data = data[1:]
		now := time.Unix(1700000000, 0)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], uint64(data[i+1])
			now = now.Add(time.Millisecond)
			var got, want ObserveResult
			var gotDue, wantDue []uint64
			var what string
			observeBoth := func(seq uint64) {
				what = fmt.Sprint("observe ", seq)
				item := Item{Data: []byte(fmt.Sprint(seq)), TraceID: seq}
				w.ObserveItem(seq, item, now, &got)
				ref.observeItem(seq, item, now, &want)
			}
			advertiseBoth := func(high uint64) {
				what = fmt.Sprint("advertise ", high)
				w.NoteAdvertised(high, now, &got)
				ref.noteAdvertised(high, now, &want)
			}
			switch op % 7 {
			case 0, 1:
				observeBoth(ref.high + 1) // in order
			case 2:
				observeBoth(ref.high - min(arg, ref.high)) // duplicate, reordered or below the window
			case 3:
				observeBoth(ref.high + 1<<(arg%14)) // jump
			case 4:
				advertiseBoth(ref.high + arg%16 - min(4, ref.high)) // possibly stale
			case 5:
				advertiseBoth(ref.high + 1<<(arg%14)) // jump
			case 6:
				now = now.Add(time.Duration(arg) * time.Millisecond)
				what = "sweep"
				gotDue = w.DueGaps(now, pol(), &got)
				wantDue = ref.dueGaps(now, pol(), &want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d (%s): result\n got %+v\nwant %+v", i/2, what, got, want)
			}
			if !reflect.DeepEqual(gotDue, wantDue) {
				t.Fatalf("op %d (%s): due %v, want %v", i/2, what, gotDue, wantDue)
			}
			if w.High() != ref.high || w.Tracked() != len(ref.received) ||
				w.PendingGaps() != len(ref.gaps) || w.PendingOrdered() != len(ref.pending) ||
				w.Cached() != ref.cached() {
				t.Fatalf("op %d (%s): high/tracked/gaps/pending/cached %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
					i/2, what, w.High(), w.Tracked(), w.PendingGaps(), w.PendingOrdered(), w.Cached(),
					ref.high, len(ref.received), len(ref.gaps), len(ref.pending), ref.cached())
			}
		}
	})
}

// refWindow is SourceWindow on maps: a received set, every ordered arrival
// through the pending map, and a slide that visits every sequence below the
// new bottom. It is FuzzSourceWindow's oracle; nothing else uses it.
type refWindow struct {
	span              int
	ordered, reliable bool
	high, pruned      uint64
	next              uint64
	received          map[uint64]bool
	pending           map[uint64]Delivery
	gaps              map[uint64]*gap
	cache             *PayloadCache
}

func newRefWindow(span, cacheCap int, ordered, reliableMode bool) *refWindow {
	w := &refWindow{span: span, ordered: ordered, reliable: reliableMode, next: 1,
		received: make(map[uint64]bool)}
	if reliableMode {
		w.gaps = make(map[uint64]*gap)
		w.cache = NewPayloadCache(cacheCap)
	}
	if ordered {
		w.pending = make(map[uint64]Delivery)
	}
	return w
}

func (w *refWindow) seed(high uint64) {
	if high == 0 || w.high > 0 {
		return
	}
	w.high, w.pruned, w.next = high, high, high+1
}

func (w *refWindow) cached() int {
	if w.cache == nil {
		return 0
	}
	return w.cache.Len()
}

func (w *refWindow) low() uint64 { return seqFloor(w.high, w.span) }

func (w *refWindow) observeItem(seq uint64, item Item, now time.Time, res *ObserveResult) {
	if seq == 0 {
		res.Fresh = true
		res.Deliver = append(res.Deliver, Delivery{0, item.Data, item.TraceID, item.OriginAt})
		return
	}
	if seq <= w.pruned || seq <= w.low() || (w.ordered && seq < w.next) {
		res.OutOfWindow++
		return
	}
	if w.received[seq] {
		return
	}
	res.Fresh = true
	w.advance(seq, false, now, res)
	w.received[seq] = true
	if g, open := w.gaps[seq]; open {
		delete(w.gaps, seq)
		res.GapsRecovered++
		if g.attempts > 0 {
			res.RecoveredAfter = append(res.RecoveredAfter, now.Sub(g.since))
		}
	}
	if w.cache != nil {
		w.cache.PutItem(seq, item)
	}
	if w.ordered {
		w.pending[seq] = Delivery{seq, item.Data, item.TraceID, item.OriginAt}
		w.release(res)
	} else {
		res.Deliver = append(res.Deliver, Delivery{seq, item.Data, item.TraceID, item.OriginAt})
	}
}

func (w *refWindow) noteAdvertised(high uint64, now time.Time, res *ObserveResult) {
	if high <= w.high {
		return
	}
	w.advance(high, true, now, res)
}

func (w *refWindow) advance(seq uint64, inclusive bool, now time.Time, res *ObserveResult) {
	if seq <= w.high {
		return
	}
	if w.gaps != nil {
		start := w.high + 1
		if newLow := seqFloor(seq, w.span); start <= newLow {
			start = newLow + 1
		}
		end := seq - 1
		if inclusive {
			end = seq
		}
		for s := start; s <= end; s++ {
			if !w.received[s] && w.gaps[s] == nil {
				w.gaps[s] = &gap{since: now}
				res.GapsOpened++
			}
		}
	}
	w.high = seq
	w.slide(res)
}

func (w *refWindow) slide(res *ObserveResult) {
	newLow := w.low()
	for s := w.pruned + 1; s <= newLow; s++ {
		if w.gaps != nil {
			if _, open := w.gaps[s]; open {
				delete(w.gaps, s)
				res.GapsAbandoned++
			}
		}
		if w.ordered {
			if d, ok := w.pending[s]; ok {
				res.Deliver = append(res.Deliver, d)
				delete(w.pending, s)
			}
		}
		delete(w.received, s)
	}
	w.pruned = newLow
	if w.ordered && w.next <= newLow {
		w.next = newLow + 1
	}
}

func (w *refWindow) release(res *ObserveResult) {
	if !w.ordered {
		return
	}
	for w.next <= w.high {
		if d, ok := w.pending[w.next]; ok {
			res.Deliver = append(res.Deliver, d)
			delete(w.pending, w.next)
			w.next++
			continue
		}
		if w.received[w.next] {
			w.next++
			continue
		}
		if _, open := w.gaps[w.next]; open {
			return
		}
		w.next++
	}
}

func (w *refWindow) dueGaps(now time.Time, pol NackPolicy, res *ObserveResult) []uint64 {
	if len(w.gaps) == 0 {
		return nil
	}
	var due []uint64
	abandoned := false
	for s, g := range w.gaps {
		if pol.MaxAttempts > 0 && g.attempts >= pol.MaxAttempts {
			delete(w.gaps, s)
			res.GapsAbandoned++
			abandoned = true
			continue
		}
		if now.Before(g.nextDue) || now.Sub(g.since) < pol.BaseDelay {
			continue
		}
		due = append(due, s)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	if pol.MaxBatch > 0 && len(due) > pol.MaxBatch {
		due = due[:pol.MaxBatch]
	}
	for _, s := range due {
		g := w.gaps[s]
		g.attempts++
		g.nextDue = now.Add(pol.backoff(g.attempts))
	}
	if abandoned {
		w.release(res)
	}
	return due
}

var benchDelivered int

// BenchmarkWindowObserveOrdered feeds in-order payloads round-robin to 210
// reliable-ordered windows, the receive state of a 15-source group at every
// member of a 15-node cluster.
func BenchmarkWindowObserveOrdered(b *testing.B) {
	ws := make([]*SourceWindow, 210)
	for i := range ws {
		ws[i] = NewSourceWindow(DefaultWindowSpan, DefaultCachePayloads, true, true)
	}
	item := Item{Data: make([]byte, 256)}
	now := time.Unix(1700000000, 0)
	var res ObserveResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = ObserveResult{Deliver: res.Deliver[:0]}
		ws[i%len(ws)].ObserveItem(uint64(i/len(ws)+1), item, now, &res)
		benchDelivered += len(res.Deliver)
	}
}
