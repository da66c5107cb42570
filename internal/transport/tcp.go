package transport

import (
	"errors"
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

// TCPConfig bounds the TCP transport's blocking operations and queues. A
// dead or wedged peer must never stall Send (and the heartbeat loop behind
// it) indefinitely. It stays settable because the overload tests shrink its
// queues to reach the shed and breaker paths.
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
// stream fails fast). Each endpoint listens on its address; outbound
// connections are cached per destination and redialled once on failure.
//
// Inbound messages land in a class-prioritized bounded queue (PrioInbox):
// under overload, control traffic displaces best-effort payloads instead of
// being shed behind them. Outbound, every link owns two bounded queues —
// control ahead of data — drained by one writer goroutine that sends
// everything queued in one vectored write, so one stalled peer delays only
// its own queues — never the caller, never the other links of a SendMany
// fan-out. A per-destination circuit breaker converts repeated failures
// (dial errors, write errors, a full control queue) into fast rejections
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

type tcpConn struct {
	t    *TCPTransport
	addr string
	conn net.Conn
	brk  *breaker

	writeTmo   time.Duration
	queueLen   int           // bound of each class queue
	wake       chan struct{} // 1-slot: the writer has frames or must exit
	writerDone chan struct{} // closed when the writer goroutine exits

	mu      sync.Mutex
	control []outItem // FIFO, written ahead of data
	data    []outItem // FIFO: payloads, fan-out frames, retransmits
	closed  bool
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

// Send encodes msg and queues it for addr over a cached connection,
// dialling on demand and retrying once with a fresh connection when the
// cached one has died. The actual write happens on the link's writer
// goroutine, so a slow peer delays only its own queues; a full queue or an
// open breaker fails the Send immediately.
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

// sendVia is the one send path: breaker check, enqueue on the cached
// connection, a single redial when that connection is closing or poisoned,
// and the drop accounting. On success the link's queue owns it (or one of
// its references); on error the caller still does.
func (t *TCPTransport) sendVia(addr string, it outItem, control bool) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	c := t.conns[addr]
	brk := t.breakerLocked(addr)
	t.mu.Unlock()

	if !brk.allow() {
		t.breakerRejects.Add(1)
		return fmt.Errorf("%w: %s", ErrBreakerOpen, addr)
	}
	if c != nil {
		err := c.enqueue(it, control)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrSendQueueFull) {
			return t.queueFull(addr, brk, control)
		}
		// The cached connection is closing or poisoned: redial once.
		t.dropConn(addr, c)
	}
	c, err := t.dial(addr)
	if err != nil {
		t.fabricDrops.Add(1)
		brk.onFailure()
		return err
	}
	if err := c.enqueue(it, control); err != nil {
		if errors.Is(err, ErrSendQueueFull) {
			return t.queueFull(addr, brk, control)
		}
		t.dropConn(addr, c)
		t.fabricDrops.Add(1)
		brk.onFailure()
		return fmt.Errorf("transport: send to %s: %w", addr, err)
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

func (t *TCPTransport) dial(addr string) (*tcpConn, error) {
	conn, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return t.adopt(addr, conn)
}

// adopt caches conn as addr's link and starts its writer goroutine. When a
// concurrent dial already cached a link, that one is kept and conn closed.
func (t *TCPTransport) adopt(addr string, conn net.Conn) (*tcpConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		conn.Close()
		return nil, ErrClosed
	}
	if old, dup := t.conns[addr]; dup {
		conn.Close()
		return old, nil
	}
	c := &tcpConn{
		t:          t,
		addr:       addr,
		conn:       conn,
		brk:        t.breakerLocked(addr),
		writeTmo:   t.cfg.WriteTimeout,
		queueLen:   t.cfg.SendQueueLen,
		wake:       make(chan struct{}, 1),
		writerDone: make(chan struct{}),
	}
	t.conns[addr] = c
	t.wg.Add(1)
	go c.writeLoop()
	return c, nil
}

// detachConn removes c from the connection cache (if still current)
// without closing it.
func (t *TCPTransport) detachConn(addr string, c *tcpConn) {
	t.mu.Lock()
	if t.conns[addr] == c {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
}

func (t *TCPTransport) dropConn(addr string, c *tcpConn) {
	t.detachConn(addr, c)
	c.close()
}

// enqueue offers a frame to the link's control or data queue without
// blocking and wakes the writer. On success the queue owns the frame (or,
// for a fan-out frame, one of its references).
func (c *tcpConn) enqueue(it outItem, control bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errConnClosing
	}
	q := &c.data
	if control {
		q = &c.control
	}
	if len(*q) >= c.queueLen {
		return ErrSendQueueFull
	}
	*q = append(*q, it)
	c.signal()
	return nil
}

var errConnClosing = errors.New("transport: connection closing")

// signal wakes the writer without blocking; a wake already pending covers
// this one.
func (c *tcpConn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// take moves every queued frame into batch — control first, then data,
// FIFO within each — and reports whether the connection is closing.
func (c *tcpConn) take(batch []outItem) ([]outItem, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	batch = append(append(batch, c.control...), c.data...)
	clear(c.control)
	clear(c.data)
	c.control, c.data = c.control[:0], c.data[:0]
	return batch, c.closed
}

// writeLoop is the link's only writer, so a stalled peer blocks only this
// loop. Each wake it takes everything queued and sends it with one write
// deadline and one vectored write. The first write failure trips the
// breaker and drops the connection; whatever is still queued drains as
// accounted loss.
func (c *tcpConn) writeLoop() {
	defer c.t.wg.Done()
	defer close(c.writerDone)
	var (
		batch          []outItem
		iov            net.Buffers // reused across batches
		closed, broken bool
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
		var err error
		if broken {
			c.t.fabricDrops.Add(uint64(len(batch)))
		} else if iov, err = c.writeBatch(batch, iov[:0]); err != nil {
			broken = true
			c.t.fabricDrops.Add(uint64(len(batch)))
			c.brk.onFailure()
			c.t.detachConn(c.addr, c)
			c.closeAbort()
		} else {
			c.brk.onSuccess()
			if len(batch) > 1 {
				c.t.batchedWrites.Add(1)
				c.t.batchedFrames.Add(uint64(len(batch)))
			}
		}
		for _, it := range batch {
			releaseItem(it)
		}
		clear(batch)
	}
}

// writeBatch sends batch's frames with one deadline and one vectored
// write, returning iov (the reusable slice of frame buffers) extended.
func (c *tcpConn) writeBatch(batch []outItem, iov net.Buffers) (net.Buffers, error) {
	for _, it := range batch {
		iov = append(iov, it.frame)
	}
	if err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTmo)); err != nil {
		return iov, err
	}
	vec := iov // WriteTo consumes its receiver; iov keeps the backing array
	_, err := vec.WriteTo(c.conn)
	return iov, err
}

// close stops the link accepting frames, gives the writer a bounded window
// to drain what was already accepted (matching the old synchronous path's
// "Send returned nil means the bytes went out" expectation for graceful
// shutdowns), then closes the socket.
func (c *tcpConn) close() {
	if !c.shut() {
		return
	}
	select {
	case <-c.writerDone:
	case <-time.After(c.drainWindow()):
		// A stalled peer holds the writer past the window; the socket close
		// below fails the in-flight write and the rest drains as loss.
	}
	c.conn.Close()
}

// closeAbort is the writer goroutine's own shutdown after a failed write:
// the socket is already broken, so there is nothing to drain and waiting on
// writerDone from the writer itself would deadlock.
func (c *tcpConn) closeAbort() {
	c.shut()
	c.conn.Close()
}

// shut marks the connection closing and wakes the writer to drain and
// exit, reporting whether this call did the transition.
func (c *tcpConn) shut() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.closed = true
	c.signal()
	return true
}

// drainWindow bounds how long close waits for the writer to finish the
// accepted queue.
func (c *tcpConn) drainWindow() time.Duration {
	if c.writeTmo > 0 && c.writeTmo < time.Second {
		return c.writeTmo
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
