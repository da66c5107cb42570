package transport

import (
	"sync"
	"sync/atomic"

	"groupcast/internal/wire"
)

// DefaultInboxCapacity is the bounded inbound queue size every transport
// uses unless configured otherwise: deep enough that a promptly-draining
// node never sheds, small enough that a wedged node bounds its memory.
const DefaultInboxCapacity = 1024

// PrioInbox is the class-prioritized bounded inbound queue shared by every
// transport (MemEndpoint, TCPTransport, and anything wrapped in the chaos
// layer inherits it through them). It replaces the old single buffered
// channel, which shed indiscriminately when full — a flash-crowd payload
// storm could starve the beacons and NACKs that keep trees alive.
//
// Messages are bucketed by wire.Classify into control, reliable-data, and
// best-effort queues sharing one capacity. The drain side always serves the
// highest-priority non-empty queue. The admission side never sheds a message
// while a strictly lower-priority message holds a slot: when the inbox is
// full, the oldest message of the lowest-priority non-empty class below the
// arrival's class is displaced instead. A control message is therefore shed
// only when the entire inbox is already control traffic.
//
// Every shed — displacement or arrival drop — is counted against the class
// of the message lost, and every accepted message is counted too, so
// delivery ratio per class is observable end to end (the overload
// experiment's control-plane-survival column reads these counters).
//
// A classless mode reproduces the legacy single-FIFO behaviour (arrival
// order preserved across classes, incoming messages shed when full) while
// still keeping per-class counters — the ablation baseline that shows what
// priority shedding buys.
//
// Each class queue is a ring (see ring), so a steady stream pushes and pops
// without allocating.
type PrioInbox struct {
	capacity  int
	classless bool

	mu     sync.Mutex
	queues [wire.NumClasses]ring
	size   int
	closed bool

	wake chan struct{} // the doorbell (capacity 1), rung by every accepted Push
	done chan struct{} // closed by Close; stops the Recv adapter

	recvOnce sync.Once
	out      chan wire.Message // the Recv adapter's stream

	accepted [wire.NumClasses]atomic.Uint64
	shed     [wire.NumClasses]atomic.Uint64
}

// NewPrioInbox returns an empty inbox with the given total capacity
// (DefaultInboxCapacity when <= 0). classless selects the legacy
// single-queue shed policy. It runs no goroutine: its one consumer waits on
// the Doorbell and Pops.
func NewPrioInbox(capacity int, classless bool) *PrioInbox {
	if capacity <= 0 {
		capacity = DefaultInboxCapacity
	}
	return &PrioInbox{
		capacity:  capacity,
		classless: classless,
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
}

// Push offers one inbound message, reporting whether it was accepted.
// Rejections (inbox full with nothing lower-priority to displace, or inbox
// closed) are counted by the message's class; closed-inbox pushes are not
// sheds and count nowhere.
func (in *PrioInbox) Push(msg wire.Message) bool { return in.push(&msg) }

// push is Push for the package's own senders: *msg is copied once, into its
// ring slot, and the caller keeps msg.
func (in *PrioInbox) push(msg *wire.Message) bool {
	cls := wire.Classify(msg)
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	if in.size < in.capacity {
		in.enqueueLocked(cls, msg)
		in.mu.Unlock()
		in.ring()
		return true
	}
	if !in.classless {
		// Full: displace the oldest message of the lowest-priority non-empty
		// class strictly below the arrival. Control never sheds while any
		// best-effort or reliable-data slot remains occupied.
		for victim := wire.NumClasses - 1; victim > int(cls); victim-- {
			q := &in.queues[victim]
			if q.size == 0 {
				continue
			}
			q.drop()
			in.size--
			in.enqueueLocked(cls, msg)
			in.mu.Unlock()
			in.shed[victim].Add(1)
			in.ring()
			return true
		}
	}
	in.mu.Unlock()
	in.shed[cls].Add(1)
	return false
}

// enqueueLocked appends *msg to its class queue (the single shared queue in
// classless mode) and ticks the accept counter.
func (in *PrioInbox) enqueueLocked(cls wire.Class, msg *wire.Message) {
	idx := int(cls)
	if in.classless {
		idx = 0
	}
	in.queues[idx].push(msg)
	in.size++
	in.accepted[cls].Add(1)
}

// ring leaves a token on the doorbell without blocking.
func (in *PrioInbox) ring() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// Doorbell holds a token once a Push has queued a message since the consumer
// last took it. The consumer waits on it and then Pops what is queued; a
// message pushed after the token was taken rings again.
func (in *PrioInbox) Doorbell() <-chan struct{} { return in.wake }

// Pop moves the oldest message of the highest-priority non-empty class into
// *dst, overwriting every field, and reports false (leaving *dst as it was)
// when nothing is queued. It is the inbox's one dequeue; a consumer pops
// into one message it reuses.
func (in *PrioInbox) Pop(dst *wire.Message) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for c := range in.queues {
		if q := &in.queues[c]; q.size > 0 {
			in.size--
			q.pop(dst)
			return true
		}
	}
	return false
}

// Ring sizing: a class ring starts at ringMinSlots and doubles when full.
// One that grew past ringKeepSlots — a flash crowd, not steady traffic — is
// released when its class drains, so an idle inbox holds no burst's peak.
const (
	ringMinSlots  = 16
	ringKeepSlots = 64
)

// ring is one class queue: a circular FIFO over buf, holding size messages
// from buf[head] on.
type ring struct {
	buf  []wire.Message
	head int
	size int
}

// push appends *msg, doubling the buffer when it is full.
func (r *ring) push(msg *wire.Message) {
	if r.size == len(r.buf) {
		grown := make([]wire.Message, max(2*len(r.buf), ringMinSlots))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	i := r.head + r.size
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = *msg
	r.size++
}

// pop moves the oldest message into *dst; the ring must not be empty.
func (r *ring) pop(dst *wire.Message) {
	*dst = r.buf[r.head]
	r.drop()
}

// drop discards the oldest message, zeroing its slot so the ring drops the
// reference; the ring must not be empty.
func (r *ring) drop() {
	r.buf[r.head] = wire.Message{}
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	if r.size--; r.size == 0 {
		r.head = 0
		if len(r.buf) > ringKeepSlots {
			r.buf = nil
		}
	}
}

// Recv is the prioritized inbound stream as a channel, closed after Close:
// an adapter over Pop for a consumer without a loop of its own. Its pump
// goroutine starts on the first call; never mix it with Pop.
func (in *PrioInbox) Recv() <-chan wire.Message {
	in.recvOnce.Do(func() {
		// Unbuffered on purpose: a buffered out channel would be a hidden
		// FIFO segment that priority cannot reach into, letting queued
		// best-effort traffic delay control messages again.
		in.out = make(chan wire.Message)
		go in.pump()
	})
	return in.out
}

// pump feeds the Recv channel from Pop. It owns closing out.
func (in *PrioInbox) pump() {
	defer close(in.out)
	var msg wire.Message
	for {
		if !in.Pop(&msg) {
			select {
			case <-in.wake:
				continue
			case <-in.done:
				return
			}
		}
		select {
		case in.out <- msg:
		case <-in.done:
			// Closing: the receiver may already be gone.
			return
		}
	}
}

// Depth is the number of queued messages not yet handed to the receiver.
func (in *PrioInbox) Depth() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.size
}

// Capacity is the fixed queue bound.
func (in *PrioInbox) Capacity() int { return in.capacity }

// ShedByClass reports cumulative sheds per class of message lost.
func (in *PrioInbox) ShedByClass() [wire.NumClasses]uint64 {
	var out [wire.NumClasses]uint64
	for c := range out {
		out[c] = in.shed[c].Load()
	}
	return out
}

// AcceptedByClass reports cumulative accepted messages per class.
func (in *PrioInbox) AcceptedByClass() [wire.NumClasses]uint64 {
	var out [wire.NumClasses]uint64
	for c := range out {
		out[c] = in.accepted[c].Load()
	}
	return out
}

// Sheds is the total across classes.
func (in *PrioInbox) Sheds() uint64 {
	var total uint64
	for c := range in.shed {
		total += in.shed[c].Load()
	}
	return total
}

// DropStats folds the inbox's shed counters into one DropStats value (the
// other fields stay zero for the endpoint to fill).
func (in *PrioInbox) DropStats() DropStats {
	shed := in.ShedByClass()
	return DropStats{
		InboxSheds:      shed[wire.ClassControl] + shed[wire.ClassReliableData] + shed[wire.ClassBestEffort],
		ControlSheds:    shed[wire.ClassControl],
		ReliableSheds:   shed[wire.ClassReliableData],
		BestEffortSheds: shed[wire.ClassBestEffort],
	}
}

// Close rejects later pushes, discards the messages still queued (like
// buffered bytes in a closed socket) and ends the Recv stream. Idempotent.
func (in *PrioInbox) Close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return
	}
	in.closed = true
	in.queues = [wire.NumClasses]ring{}
	in.size = 0
	close(in.done)
}
