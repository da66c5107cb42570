package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"groupcast/internal/wire"
)

// DefaultSendQueueLen is the per-link, per-class outbound queue bound: deep
// enough to absorb a relay burst, shallow enough that a stalled peer wastes
// at most a few hundred frames of memory before the breaker takes over.
const DefaultSendQueueLen = 256

const (
	// readBufSize is each inbound connection's read buffer: a batch a peer
	// sent in one vectored write is read with about one syscall instead of
	// two per frame. Frames larger than the buffer are read straight into
	// the decoder's body buffer.
	readBufSize = 32 << 10
	// frameBufLen is a new encode buffer's capacity: a 4 KiB payload frame
	// grows it once and then fits.
	frameBufLen = 4 << 10
	// maxPooledFrame caps the encode buffers the free list keeps, so one
	// large frame does not pin its buffer for the transport's lifetime.
	maxPooledFrame = 16 << 10
	// freeFrames bounds the free list of encode buffers: enough for the
	// frames a busy node has in flight across its links. With
	// maxPooledFrame it caps what the list holds at 2 MiB. The list is a
	// channel rather than a sync.Pool so that reuse is exact: a warm hop
	// allocates the same under the race detector, which makes a Pool drop
	// items at random.
	freeFrames = 128
)

// TCPConfig bounds the TCP transport's link writers and queues. Send never
// waits on the network; the timeouts bound how long a dead or wedged peer
// holds its own link's writer. It stays settable because the overload tests
// shrink its queues to reach the shed and breaker paths.
type TCPConfig struct {
	// DialTimeout bounds connection establishment. Zero uses the default.
	DialTimeout time.Duration
	// WriteTimeout bounds each batched socket write (applied as one
	// deadline on the connection per batch). Zero uses the default.
	WriteTimeout time.Duration
	// InboxCapacity bounds the prioritized inbound queue. Zero uses
	// DefaultInboxCapacity.
	InboxCapacity int
	// SendQueueLen bounds each of a link's two outbound queues, control and
	// data (frames waiting for the link's writer goroutine). Zero uses
	// DefaultSendQueueLen.
	SendQueueLen int
	// BreakerThreshold is the consecutive-failure count that opens a
	// destination's circuit breaker. Zero uses DefaultBreakerThreshold;
	// negative disables breakers.
	BreakerThreshold int
	// BreakerBackoff is the initial fail-fast window after a breaker opens
	// (doubles per failed probe up to DefaultBreakerMaxBackoff). Zero uses
	// DefaultBreakerBackoff.
	BreakerBackoff time.Duration
}

// DefaultTCPConfig returns the timeouts and queue bounds used by ListenTCP.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		DialTimeout:      5 * time.Second,
		WriteTimeout:     5 * time.Second,
		InboxCapacity:    DefaultInboxCapacity,
		SendQueueLen:     DefaultSendQueueLen,
		BreakerThreshold: DefaultBreakerThreshold,
		BreakerBackoff:   DefaultBreakerBackoff,
	}
}

// TCPTransport is a frame-coded TCP implementation of Transport speaking the
// binary wire codec (see internal/wire: the frame header and a hard frame
// size cap are checked before any allocation, so a hostile or corrupted
// stream fails fast). Each endpoint listens on its address; outbound links
// are cached per destination.
//
// Inbound messages land in a class-prioritized bounded queue (PrioInbox):
// under overload, control traffic displaces best-effort payloads instead of
// being shed behind them. Outbound, Send and SendMany only enqueue: every
// link owns two bounded queues — control ahead of data — and one writer
// goroutine that dials the destination, then sends everything queued in
// one vectored write. A silent or stalled peer therefore delays only its
// own link — never the caller, never the other links of a SendMany
// fan-out. A dial or write error fails the link on the writer: the
// per-destination circuit breaker counts it, the link leaves the cache
// (the next send makes a new one), and its queued frames drain as
// FabricDrops. Repeated failures (dial errors, write errors, a full
// control queue) open the breaker, which turns sends into fast rejections
// with a half-open probe after backoff; a full data queue sheds the frame
// without counting against the peer.
//
// The transport implements MultiSender: a fan-out message is encoded once
// into a pooled, reference-counted frame and the same bytes are queued to
// every link — the zero-copy half of the relay hot path. Each inbound
// connection is read through one buffer, so a batch costs about one read
// syscall.
type TCPTransport struct {
	ln    net.Listener
	cfg   TCPConfig
	inbox *PrioInbox
	free  chan *frame // encode buffers ready for reuse
	// dialContext opens a link's connection; only link writers call it.
	dialContext func(ctx context.Context, network, addr string) (net.Conn, error)

	fabricDrops    atomic.Uint64
	sendQueueDrops atomic.Uint64
	breakerRejects atomic.Uint64
	batchedWrites  atomic.Uint64
	batchedFrames  atomic.Uint64

	mu       sync.Mutex
	conns    map[string]*tcpConn
	breakers map[string]*breaker
	inbound  map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// frame is one encoded outbound message, shared by every link a fan-out
// queues it on: each holder owns one reference, and the last to let go
// returns the frame to the transport's free list.
type frame struct {
	buf  []byte
	refs atomic.Int32
}

// newFrame encodes msg into a frame from the free list holding refs
// references. On error the frame is already recycled.
func (t *TCPTransport) newFrame(msg *wire.Message, refs int32) (*frame, error) {
	var f *frame
	select {
	case f = <-t.free:
	default:
		f = &frame{buf: make([]byte, 0, frameBufLen)}
	}
	var err error
	f.buf, err = wire.AppendMessage(f.buf[:0], msg)
	if err != nil {
		t.recycle(f)
		return nil, err
	}
	f.refs.Store(refs)
	return f, nil
}

// release drops one reference to f and recycles it after the last one.
func (t *TCPTransport) release(f *frame) {
	if f.refs.Add(-1) == 0 {
		t.recycle(f)
	}
}

// recycle returns f to the free list unless its buffer grew past
// maxPooledFrame or the list is full.
func (t *TCPTransport) recycle(f *frame) {
	if cap(f.buf) > maxPooledFrame {
		return
	}
	select {
	case t.free <- f:
	default:
	}
}

// tcpConn is one outbound link: two queues and the writer goroutine that
// dials, writes and fails for them.
type tcpConn struct {
	t     *TCPTransport
	addr  string
	brk   *breaker
	abort context.CancelFunc // cancels the dial, or closes the socket

	wake       chan struct{} // 1-slot: the writer has frames or must exit
	writerDone chan struct{} // closed when the writer goroutine exits

	mu      sync.Mutex
	control []*frame // FIFO, written ahead of data
	data    []*frame // FIFO: payloads, fan-out frames, retransmits
	closed  bool
	dialled bool // the writer holds a connection: close drains it

	// iov and vec belong to the writer: iov keeps the batch's buffers, and
	// vec is the copy WriteTo consumes. Both live here so a batch moves no
	// slice header to the heap.
	iov, vec net.Buffers
}

var (
	_ Transport       = (*TCPTransport)(nil)
	_ DropCounter     = (*TCPTransport)(nil)
	_ QueueReporter   = (*TCPTransport)(nil)
	_ MultiSender     = (*TCPTransport)(nil)
	_ BreakerReporter = (*TCPTransport)(nil)
)

// ListenTCP starts an endpoint on addr ("host:port"; ":0" picks a free
// port) with the default configuration.
func ListenTCP(addr string) (*TCPTransport, error) {
	return ListenTCPConfig(addr, DefaultTCPConfig())
}

// ListenTCPConfig starts an endpoint with explicit configuration (zero
// fields fall back to the defaults).
func ListenTCPConfig(addr string, cfg TCPConfig) (*TCPTransport, error) {
	def := DefaultTCPConfig()
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = def.DialTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = def.WriteTimeout
	}
	if cfg.InboxCapacity <= 0 {
		cfg.InboxCapacity = def.InboxCapacity
	}
	if cfg.SendQueueLen <= 0 {
		cfg.SendQueueLen = def.SendQueueLen
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = def.BreakerThreshold
	}
	if cfg.BreakerBackoff <= 0 {
		cfg.BreakerBackoff = def.BreakerBackoff
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := &TCPTransport{
		ln:       ln,
		cfg:      cfg,
		inbox:    NewPrioInbox(cfg.InboxCapacity, false),
		free:     make(chan *frame, freeFrames),
		conns:    make(map[string]*tcpConn),
		breakers: make(map[string]*breaker),
		inbound:  make(map[net.Conn]struct{}),
	}
	t.dialContext = (&net.Dialer{Timeout: cfg.DialTimeout}).DialContext
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Recv returns the inbound stream (class-prioritized).
func (t *TCPTransport) Recv() <-chan wire.Message { return t.inbox.Recv() }

// QueueDepth samples the inbox occupancy.
func (t *TCPTransport) QueueDepth() int { return t.inbox.Depth() }

// QueueCapacity reports the inbox bound.
func (t *TCPTransport) QueueCapacity() int { return t.inbox.Capacity() }

// InboxQueue is the prioritized inbox: a node's loop drains it, and tests
// and experiments read its per-class accept/shed accounting.
func (t *TCPTransport) InboxQueue() *PrioInbox { return t.inbox }

// DropStats reports inbound messages shed on a full inbox (broken down by
// class), outbound messages lost to dial/write failures, frames dropped on
// full per-link send queues, and sends rejected by open breakers.
func (t *TCPTransport) DropStats() DropStats {
	out := t.inbox.DropStats()
	out.FabricDrops = t.fabricDrops.Load()
	out.SendQueueDrops = t.sendQueueDrops.Load()
	out.BreakerRejects = t.breakerRejects.Load()
	return out
}

// Breakers snapshots every destination's circuit breaker, sorted by address.
func (t *TCPTransport) Breakers() []BreakerInfo {
	t.mu.Lock()
	out := make([]BreakerInfo, 0, len(t.breakers))
	for addr, b := range t.breakers {
		out = append(out, b.snapshot(addr))
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// OutboundQueueDepth sums the frames waiting in every link's control and
// data queues — the outbound counterpart of QueueDepth for the overload
// gauges.
func (t *TCPTransport) OutboundQueueDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, c := range t.conns {
		c.mu.Lock()
		total += len(c.control) + len(c.data)
		c.mu.Unlock()
	}
	return total
}

// CoalesceStats counts the link writers' batching: socket writes that
// carried more than one frame, and the frames those writes carried.
type CoalesceStats struct {
	// Msgs is the number of frames carried by multi-frame writes.
	Msgs uint64
	// Frames is the number of socket writes that carried more than one
	// frame.
	Frames uint64
}

// CoalesceStats reports how many socket writes carried more than one frame
// and how many frames they carried.
func (t *TCPTransport) CoalesceStats() CoalesceStats {
	return CoalesceStats{
		Msgs:   t.batchedFrames.Load(),
		Frames: t.batchedWrites.Load(),
	}
}

// breakerLocked returns addr's breaker, creating it on first use. Caller
// holds t.mu.
func (t *TCPTransport) breakerLocked(addr string) *breaker {
	b := t.breakers[addr]
	if b == nil {
		b = newBreaker(t.cfg.BreakerThreshold, t.cfg.BreakerBackoff, DefaultBreakerMaxBackoff)
		t.breakers[addr] = b
	}
	return b
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	dec := wire.NewFrameReader(bufio.NewReaderSize(conn, readBufSize))
	var msg wire.Message // ReadMessage overwrites every field
	for {
		if err := dec.ReadMessage(&msg); err != nil {
			// Any framing or decode error poisons the stream (by far most
			// commonly a clean peer close); drop the connection.
			return
		}
		// Close closes this conn and waits for this loop before it closes
		// the inbox, so the push needs no lock. The prioritized inbox sheds
		// (with per-class accounting) when full rather than stalling the peer.
		t.inbox.push(&msg)
	}
}

// Send encodes msg and queues it on addr's link. It never touches the
// network: the first send to an address creates the link, whose writer
// goroutine dials before its first batch, so a dial or write failure
// shows up later as FabricDrops and a breaker failure, not here. A full
// queue, an open breaker or a closed transport fails the Send at once.
func (t *TCPTransport) Send(addr string, msg wire.Message) error {
	f, err := t.newFrame(&msg, 1)
	if err != nil {
		return err
	}
	if err := t.sendVia(addr, f, wire.Classify(&msg) == wire.ClassControl); err != nil {
		t.release(f)
		return err
	}
	return nil
}

// sendVia is the one send path: breaker check, then the frame joins addr's
// link, created (with its writer) on first use. A link in t.conns is never
// closing — its writer detaches it before shutting it, and Close empties
// the cache before shutting any — so the enqueue fails only on a full
// queue. On success the link's queue owns it (or one
// of its references); on error the caller still does.
func (t *TCPTransport) sendVia(addr string, f *frame, control bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	brk := t.breakerLocked(addr)
	if !brk.allow() {
		t.breakerRejects.Add(1)
		return fmt.Errorf("%w: %s", ErrBreakerOpen, addr)
	}
	c := t.conns[addr]
	if c == nil {
		c = t.newLinkLocked(addr, brk)
	}
	if !c.enqueue(f, control) {
		return t.queueFull(addr, brk, control)
	}
	return nil
}

// queueFull accounts a frame shed on a full link queue. A full data queue
// means a busy peer, not a failed one, so only a full control queue counts
// against the breaker; a stalled peer trips it through its write timeouts.
func (t *TCPTransport) queueFull(addr string, brk *breaker, control bool) error {
	t.sendQueueDrops.Add(1)
	if control {
		brk.onFailure()
	}
	return fmt.Errorf("transport: send to %s: %w", addr, ErrSendQueueFull)
}

// SendMany implements MultiSender: msg is encoded exactly once into a
// pooled, reference-counted frame and the same bytes are queued to every
// address — a stalled link rejects fast (full queue or open breaker)
// without delaying the others. each (optional) observes every link's
// outcome.
func (t *TCPTransport) SendMany(addrs []string, msg wire.Message, each func(addr string, err error)) {
	// One reference per link plus one held here, so the frame cannot be
	// recycled while links are still being offered it.
	f, err := t.newFrame(&msg, int32(len(addrs))+1)
	if err != nil {
		for _, addr := range addrs {
			if each != nil {
				each(addr, err)
			}
		}
		return
	}
	control := wire.Classify(&msg) == wire.ClassControl
	for _, addr := range addrs {
		err := t.sendVia(addr, f, control)
		if err != nil {
			// The link never took ownership of its reference.
			t.release(f)
		}
		if each != nil {
			each(addr, err)
		}
	}
	t.release(f)
}

// newLinkLocked caches an empty link to addr and starts its writer, which
// dials before its first batch. Caller holds t.mu.
func (t *TCPTransport) newLinkLocked(addr string, brk *breaker) *tcpConn {
	ctx, abort := context.WithCancel(context.Background())
	c := &tcpConn{
		t:          t,
		addr:       addr,
		brk:        brk,
		abort:      abort,
		wake:       make(chan struct{}, 1),
		writerDone: make(chan struct{}),
	}
	t.conns[addr] = c
	t.wg.Add(1)
	go c.writeLoop(ctx)
	return c
}

// enqueue offers a frame to the link's control or data queue without
// blocking and wakes the writer, reporting false when that queue is full.
// On success the queue owns the frame (or, for a fan-out frame, one of its
// references).
func (c *tcpConn) enqueue(f *frame, control bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := &c.data
	if control {
		q = &c.control
	}
	if len(*q) >= c.t.cfg.SendQueueLen {
		return false
	}
	*q = append(*q, f)
	c.signal()
	return true
}

// signal wakes the writer without blocking; a wake already pending covers
// this one.
func (c *tcpConn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// take moves every queued frame into batch — control first, then data,
// FIFO within each — and reports whether the link is closing.
func (c *tcpConn) take(batch []*frame) ([]*frame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	batch = append(append(batch, c.control...), c.data...)
	clear(c.control)
	clear(c.data)
	c.control, c.data = c.control[:0], c.data[:0]
	return batch, c.closed
}

// writeLoop is the link's only writer, so a silent or stalled peer blocks
// only this goroutine. It dials once, then each wake takes everything
// queued and sends it with one write deadline and one vectored write. The
// first dial or write error goes to fail, and from then on whatever is
// queued drains as accounted loss until the link is shut and empty.
func (c *tcpConn) writeLoop(ctx context.Context) {
	defer c.t.wg.Done()
	defer close(c.writerDone)
	defer c.abort()
	conn, err := c.t.dialContext(ctx, "tcp", c.addr)
	if err != nil {
		c.fail()
	} else {
		defer conn.Close()
		// Close's abort after the drain window fails a stalled write.
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		defer stop()
		c.mu.Lock()
		c.dialled = true
		c.mu.Unlock()
	}
	var (
		batch  []*frame
		closed bool
	)
	for {
		batch, closed = c.take(batch[:0])
		if len(batch) == 0 {
			if closed {
				return
			}
			<-c.wake
			continue
		}
		if err == nil {
			if err = c.writeBatch(conn, batch); err != nil {
				c.fail()
			} else {
				c.brk.onSuccess()
				if len(batch) > 1 {
					c.t.batchedWrites.Add(1)
					c.t.batchedFrames.Add(uint64(len(batch)))
				}
			}
		}
		if err != nil {
			c.t.fabricDrops.Add(uint64(len(batch)))
		}
		for _, f := range batch {
			c.t.release(f)
		}
		clear(batch)
	}
}

// fail is the one failure path for dials and writes: the breaker counts a
// failure, the link leaves the cache (the next send makes a fresh one) and
// stops accepting frames.
func (c *tcpConn) fail() {
	c.brk.onFailure()
	c.t.mu.Lock()
	if c.t.conns[c.addr] == c {
		delete(c.t.conns, c.addr)
	}
	c.t.mu.Unlock()
	c.shut()
}

// writeBatch sends batch's frames with one deadline and one vectored
// write.
func (c *tcpConn) writeBatch(conn net.Conn, batch []*frame) error {
	c.iov = c.iov[:0]
	for _, f := range batch {
		c.iov = append(c.iov, f.buf)
	}
	err := conn.SetWriteDeadline(time.Now().Add(c.t.cfg.WriteTimeout))
	if err == nil {
		// WriteTo consumes its receiver; iov keeps the backing array.
		c.vec = c.iov
		_, err = c.vec.WriteTo(conn)
	}
	clear(c.iov) // pin no buffer the free list dropped
	return err
}

// close stops the link accepting frames and gives a connected writer a
// bounded window to drain what was already accepted (so a graceful
// shutdown still sends what Send accepted); then it aborts the link, which
// closes the socket under a stalled write. A link still dialling is
// aborted at once: Close never waits on a dial.
func (c *tcpConn) close() {
	if !c.shut() {
		return
	}
	select {
	case <-c.writerDone:
	case <-time.After(c.drainWindow()):
		// The rest drains as loss once the abort fails the write.
	}
	c.abort()
}

// shut marks the link closing and wakes the writer to drain and exit,
// cancelling a dial still in progress, and reports whether this call did
// the transition.
func (c *tcpConn) shut() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.closed = true
	if !c.dialled {
		c.abort()
	}
	c.signal()
	return true
}

// drainWindow bounds how long close waits for the writer to finish the
// accepted queue.
func (c *tcpConn) drainWindow() time.Duration {
	if tmo := c.t.cfg.WriteTimeout; tmo < time.Second {
		return tmo
	}
	return time.Second
}

// Close shuts the listener, all cached connections (waiting for their
// writer goroutines), and the inbox.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = map[string]*tcpConn{}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()

	err := t.ln.Close()
	for _, c := range conns {
		c.close()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
	t.inbox.Close()
	return err
}
