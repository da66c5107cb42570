package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"groupcast/internal/node"
	"groupcast/internal/wire"
)

const (
	// payloadHeader is the 8-byte publish index plus the 8-byte per-source
	// sequence every benchmark payload starts with; seed-derived filler
	// follows.
	payloadHeader = 16
	// slotRing bounds how many publishes can be tracked at once; it only has
	// to exceed the largest in-flight window by a wide margin so a late
	// delivery of an abandoned publish cannot alias a live one.
	slotRing = 1024
	// stallAfter is how long the generator waits without a single completion
	// before it declares the in-flight publishes lost.
	stallAfter = 2 * time.Second

	windowUnloaded = 1  // phase w1: unloaded fan-out latency
	windowLoaded   = 16 // phase w16: capacity
)

// slot tracks one in-flight publish. The generator fills it before Publish;
// the handlers read it after an acquire load of pub.
type slot struct {
	pub       atomic.Uint64
	remaining atomic.Int32
	seen      [NumNodes]atomic.Bool
	src       int
	start     int64
}

type completion struct {
	pub uint64
	end int64
}

// Driver is the closed-loop load generator and the correctness checker for
// one cluster. One goroutine (the caller of Phase) publishes; the nodes'
// receive loops run the handlers, which signal completion themselves — no
// polling, no sleep.
type Driver struct {
	c      *Cluster
	w      Workload
	rec    *Recorder // nil on the untraced cluster
	epoch  time.Time
	filler []byte

	slots [slotRing]slot
	// done carries one completion per publish; the generator never has more
	// than windowLoaded unreceived, so a ring-sized buffer never fills.
	done chan completion

	next   uint64           // next publish index (generator only)
	srcSeq [NumNodes]uint64 // per-source sequence (generator only)
	// lastSeq[m][s] is the last per-source sequence member m saw from source
	// s; only m's handler touches row m, and the node serialises its handler
	// calls.
	lastSeq [NumNodes][NumNodes]uint64

	handlerCalls atomic.Int64
	corrupt      atomic.Int64 // wrong length, filler or sender
	duplicates   atomic.Int64 // second delivery of a publish at one member
	misordered   atomic.Int64 // reliable-ordered: per-source sequence not +1
	stale        atomic.Int64 // delivery for a publish no longer tracked
	lostSignals  atomic.Int64 // completion channel full (cannot happen; checked)

	attempted     int64
	publishErrors int64
	undelivered   int64
}

// NewDriver installs a checking handler on every node of c. The payload
// filler comes from the seed.
func NewDriver(c *Cluster, w Workload, seed int64, rec *Recorder) *Driver {
	d := &Driver{c: c, w: w, rec: rec, epoch: time.Now(),
		filler: make([]byte, w.PayloadBytes-payloadHeader),
		done:   make(chan completion, slotRing)}
	if rec != nil {
		d.epoch = rec.epoch // one clock for driver and transport spans
	}
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(d.filler)
	for i := range d.slots {
		d.slots[i].pub.Store(^uint64(0))
	}
	for m, n := range c.Nodes {
		n.SetPayloadHandler(d.handler(m))
	}
	return d
}

func (d *Driver) now() int64 { return int64(time.Since(d.epoch)) }

func (d *Driver) handler(m int) node.PayloadHandler {
	return func(_ string, from wire.PeerInfo, data []byte) {
		var begin int64
		if d.rec != nil {
			begin = d.now()
		}
		d.handlerCalls.Add(1)
		if len(data) != d.w.PayloadBytes || !bytes.Equal(data[payloadHeader:], d.filler) {
			d.corrupt.Add(1)
			return
		}
		pub := binary.LittleEndian.Uint64(data)
		seq := binary.LittleEndian.Uint64(data[8:])
		s := &d.slots[pub%slotRing]
		if s.pub.Load() != pub {
			d.stale.Add(1)
			return
		}
		if from.Addr != d.c.Addrs[s.src] {
			d.corrupt.Add(1)
			return
		}
		if s.seen[m].Swap(true) {
			d.duplicates.Add(1)
			return
		}
		if d.w.Mode == wire.ReliableOrdered {
			if seq != d.lastSeq[m][s.src]+1 {
				d.misordered.Add(1)
			}
			d.lastSeq[m][s.src] = seq
		}
		end := d.now()
		if s.remaining.Add(-1) == 0 {
			select {
			case d.done <- completion{pub: pub, end: end}:
			default:
				d.lostSignals.Add(1)
			}
		}
		if d.rec != nil {
			d.rec.add(Span{Pub: pub, Start: begin, End: end, Cause: -1, Kind: SpanHandler, Node: uint8(m)})
		}
	}
}

// publishOne issues the next publish and returns how long Publish took.
func (d *Driver) publishOne() (int64, error) {
	pub := d.next
	d.next++
	src := 0
	if d.w.AllPublish {
		src = int(pub % NumNodes)
	}
	d.srcSeq[src]++
	// A fresh buffer per publish: the in-memory fabric hands this very slice
	// to every handler and the reliable plane caches it for retransmission.
	data := make([]byte, d.w.PayloadBytes)
	binary.LittleEndian.PutUint64(data, pub)
	binary.LittleEndian.PutUint64(data[8:], d.srcSeq[src])
	copy(data[payloadHeader:], d.filler)

	s := &d.slots[pub%slotRing]
	s.src = src
	for i := range s.seen {
		s.seen[i].Store(false)
	}
	s.remaining.Store(Receivers)
	s.start = d.now()
	s.pub.Store(pub)
	err := d.c.Nodes[src].Publish(groupID, data)
	end := d.now()
	if d.rec != nil {
		d.rec.add(Span{Pub: pub, Start: s.start, End: end, Cause: -1, Kind: SpanPublish, Node: uint8(src)})
	}
	d.attempted++
	if err != nil {
		d.publishErrors++
		return end - s.start, fmt.Errorf("publish %d at node %d: %w", pub, src, err)
	}
	return end - s.start, nil
}

// PhaseResult is what one closed-loop phase measured.
type PhaseResult struct {
	// Latencies holds, sorted ascending, Publish entry → handler return at
	// the last member for every publish completed in the phase, in ns.
	Latencies []int64
	Elapsed   time.Duration // phase start → last completion
	Completed int64
	// PublishNs is the summed duration of the Publish calls.
	PublishNs int64
	// CPU is the process's user+system time over the phase; Deliveries the
	// handler calls in it.
	CPU        time.Duration
	Deliveries int64
	Mem        memDelta
}

type memDelta struct {
	AllocBytes, Mallocs uint64
	GCCycles            uint32
	GCPause             time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Phase keeps window publishes in flight for dur, then drains. A publish
// error or a stall (no completion for stallAfter) ends the phase with an
// error; the lost publishes are counted as failed.
func (d *Driver) Phase(window int, dur time.Duration) (PhaseResult, error) {
	var res PhaseResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls0, cpu0 := d.handlerCalls.Load(), cpuTime()
	stall := time.NewTicker(stallAfter)
	defer stall.Stop()

	start := d.now()
	deadline := start + int64(dur)
	inflight, progressed := 0, false
	lastDone := start
	var phaseErr error
	for {
		for inflight < window && phaseErr == nil && d.now() < deadline {
			ns, err := d.publishOne()
			res.PublishNs += ns
			if err != nil {
				phaseErr = err
				break
			}
			inflight++
		}
		if inflight == 0 {
			break
		}
		select {
		case c := <-d.done:
			inflight--
			progressed = true
			res.Latencies = append(res.Latencies, c.end-d.slots[c.pub%slotRing].start)
			lastDone = c.end
		case <-stall.C:
			if !progressed {
				d.undelivered += int64(inflight)
				inflight = 0
				if phaseErr == nil {
					phaseErr = fmt.Errorf("no publish completed for %v", stallAfter)
				}
			}
			progressed = false
		}
	}
	res.Elapsed = time.Duration(lastDone - start)
	res.Completed = int64(len(res.Latencies))
	res.CPU = cpuTime() - cpu0
	res.Deliveries = d.handlerCalls.Load() - calls0
	runtime.ReadMemStats(&after)
	res.Mem = memDelta{
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		GCCycles:   after.NumGC - before.NumGC,
		GCPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	return res, phaseErr
}

// Failed is how many publishes went wrong: Publish errors, publishes that
// did not reach every member, and duplicate, corrupt, stale or out-of-order
// deliveries.
func (d *Driver) Failed() int64 {
	return d.publishErrors + d.undelivered + d.corrupt.Load() + d.duplicates.Load() +
		d.misordered.Load() + d.stale.Load() + d.lostSignals.Load()
}

// FailureDetail names the non-zero failure counts.
func (d *Driver) FailureDetail() string {
	return fmt.Sprintf("publish_errors=%d undelivered=%d corrupt=%d duplicates=%d misordered=%d stale=%d lost_signals=%d",
		d.publishErrors, d.undelivered, d.corrupt.Load(), d.duplicates.Load(),
		d.misordered.Load(), d.stale.Load(), d.lostSignals.Load())
}
