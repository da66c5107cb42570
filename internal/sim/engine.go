// Package sim implements a deterministic discrete event simulation engine in
// the style of p-sim (Merugu, Srinivasan, Zegura, MASCOTS'03), which the
// GroupCast paper extended for its evaluation. Events carry a virtual
// timestamp in milliseconds; the engine pops them in timestamp order (FIFO
// among equal timestamps) and invokes their handlers, which may schedule
// further events.
package sim

import (
	"container/heap"
	"errors"
)

// Time is a virtual simulation timestamp in milliseconds.
type Time float64

// Handler is the callback invoked when an event fires. It receives the engine
// so it can schedule follow-up events, and the event's firing time.
type Handler func(e *Engine, now Time)

type event struct {
	at  Time
	seq uint64 // tie-break so equal timestamps fire FIFO
	fn  Handler
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// EventID identifies a scheduled event.
type EventID struct{ ev *event }

// Engine is a single-threaded discrete event simulator. It is not safe for
// concurrent use; all scheduling happens from handlers or from the driving
// goroutine between Run calls.
type Engine struct {
	now       Time
	seq       uint64
	queue     eventQueue
	processed uint64
}

// ErrPastEvent is returned when scheduling before the current virtual time.
var ErrPastEvent = errors.New("sim: scheduling event in the past")

// New returns an engine with its clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to fire at absolute virtual time at.
func (e *Engine) At(at Time, fn Handler) (EventID, error) {
	if at < e.now {
		return EventID{}, ErrPastEvent
	}
	if fn == nil {
		return EventID{}, errors.New("sim: nil handler")
	}
	ev := &event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return EventID{ev: ev}, nil
}

// After schedules fn to fire delay milliseconds from now. Negative delays are
// clamped to zero.
func (e *Engine) After(delay Time, fn Handler) (EventID, error) {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// Step fires the single earliest pending event. It returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	e.processed++
	ev.fn(e, e.now)
	return true
}

// Run fires events until the queue drains or maxEvents have been processed
// (0 means unlimited). It returns the number of events fired by this call.
func (e *Engine) Run(maxEvents uint64) uint64 {
	var fired uint64
	for maxEvents == 0 || fired < maxEvents {
		if !e.Step() {
			break
		}
		fired++
	}
	return fired
}

// RunUntil fires events with timestamps <= deadline and then advances the
// clock to the deadline (even if no events remain). It returns the number of
// events fired.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var fired uint64
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
		fired++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return fired
}
