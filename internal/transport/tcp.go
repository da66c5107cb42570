package transport

import (
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
// into a pooled, reference-counted buffer and the same bytes are queued to
// every link — the zero-copy half of the relay hot path.
type TCPTransport struct {
	ln    net.Listener
	cfg   TCPConfig
	inbox *PrioInbox
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

// outItem is one queued outbound frame: pre-encoded bytes, possibly shared
// across a fan-out via refs.
type outItem struct {
	frame []byte
	refs  *atomic.Int32 // nil: exclusive pooled frame
}

// releaseItem returns an item's frame buffer to the encode pool once the
// last holder lets go.
func releaseItem(it outItem) {
	if it.refs == nil || it.refs.Add(-1) == 0 {
		wire.PutEncodeBuffer(it.frame)
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
	control []outItem // FIFO, written ahead of data
	data    []outItem // FIFO: payloads, fan-out frames, retransmits
	closed  bool
	dialled bool // the writer holds a connection: close drains it
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
	out := t.inbox.dropStats()
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
	dec := wire.NewFrameReader(conn)
	for {
		var msg wire.Message
		if err := dec.ReadMessage(&msg); err != nil {
			// Any framing or decode error poisons the stream (by far most
			// commonly a clean peer close); drop the connection.
			return
		}
		// Close closes this conn and waits for this loop before it closes
		// the inbox, so the push needs no lock. The prioritized inbox sheds
		// (with per-class accounting) when full rather than stalling the peer.
		t.inbox.Push(msg)
	}
}

// Send encodes msg and queues it on addr's link. It never touches the
// network: the first send to an address creates the link, whose writer
// goroutine dials before its first batch, so a dial or write failure
// shows up later as FabricDrops and a breaker failure, not here. A full
// queue, an open breaker or a closed transport fails the Send at once.
func (t *TCPTransport) Send(addr string, msg wire.Message) error {
	frame, err := wire.AppendMessage(wire.GetEncodeBuffer(), &msg)
	if err != nil {
		wire.PutEncodeBuffer(frame)
		return err
	}
	it := outItem{frame: frame}
	if err := t.sendVia(addr, it, wire.Classify(&msg) == wire.ClassControl); err != nil {
		releaseItem(it)
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
func (t *TCPTransport) sendVia(addr string, it outItem, control bool) error {
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
	if !c.enqueue(it, control) {
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
// pooled, reference-counted buffer and the same frame bytes are queued to
// every address — a stalled link rejects fast (full queue or open breaker)
// without delaying the others. each (optional) observes every link's
// outcome.
func (t *TCPTransport) SendMany(addrs []string, msg wire.Message, each func(addr string, err error)) {
	buf := wire.GetEncodeBuffer()
	frame, err := wire.AppendMessage(buf, &msg)
	if err != nil {
		wire.PutEncodeBuffer(buf)
		for _, addr := range addrs {
			if each != nil {
				each(addr, err)
			}
		}
		return
	}
	// One reference per link plus one held here, so the frame cannot be
	// pooled while links are still being offered it.
	refs := new(atomic.Int32)
	refs.Store(int32(len(addrs)) + 1)
	it := outItem{frame: frame, refs: refs}
	control := wire.Classify(&msg) == wire.ClassControl
	for _, addr := range addrs {
		err := t.sendVia(addr, it, control)
		if err != nil {
			// The link never took ownership of its reference.
			releaseItem(it)
		}
		if each != nil {
			each(addr, err)
		}
	}
	releaseItem(it)
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
func (c *tcpConn) enqueue(it outItem, control bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := &c.data
	if control {
		q = &c.control
	}
	if len(*q) >= c.t.cfg.SendQueueLen {
		return false
	}
	*q = append(*q, it)
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
func (c *tcpConn) take(batch []outItem) ([]outItem, bool) {
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
		batch  []outItem
		iov    net.Buffers // reused across batches
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
			if iov, err = c.writeBatch(conn, batch, iov[:0]); err != nil {
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
		for _, it := range batch {
			releaseItem(it)
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
// write, returning iov (the reusable slice of frame buffers) extended.
func (c *tcpConn) writeBatch(conn net.Conn, batch []outItem, iov net.Buffers) (net.Buffers, error) {
	for _, it := range batch {
		iov = append(iov, it.frame)
	}
	if err := conn.SetWriteDeadline(time.Now().Add(c.t.cfg.WriteTimeout)); err != nil {
		return iov, err
	}
	vec := iov // WriteTo consumes its receiver; iov keeps the backing array
	_, err := vec.WriteTo(conn)
	return iov, err
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
