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

// DefaultSendQueueLen is the per-link outbound queue bound: deep enough to
// absorb a relay burst, shallow enough that a stalled peer wastes at most a
// few hundred frames of memory before the breaker takes over.
const DefaultSendQueueLen = 256

// TCPConfig bounds the TCP transport's blocking operations and queues. A
// dead or wedged peer must never stall Send (and the heartbeat loop behind
// it) indefinitely.
type TCPConfig struct {
	// DialTimeout bounds connection establishment. Zero uses the default.
	DialTimeout time.Duration
	// WriteTimeout bounds each message write (applied as a per-write
	// deadline on the connection). Zero uses the default.
	WriteTimeout time.Duration
	// CoalesceWindow is how long small control messages (beacons, digests)
	// may wait per link to share one container frame. Zero uses
	// DefaultCoalesceWindow; negative disables coalescing.
	CoalesceWindow time.Duration
	// CoalesceLimit is the pending-bytes threshold that flushes a link's
	// container frame before the window elapses. Zero uses
	// DefaultCoalesceLimit.
	CoalesceLimit int
	// InboxCapacity bounds the prioritized inbound queue. Zero uses
	// DefaultInboxCapacity.
	InboxCapacity int
	// SendQueueLen bounds each link's outbound queue (frames waiting for
	// the link's writer goroutine). Zero uses DefaultSendQueueLen.
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
// being shed behind them. Outbound, every link owns a bounded send queue
// drained by a writer goroutine, so one stalled peer delays only its own
// queue — never the caller, never the other links of a SendMany fan-out. A
// per-destination circuit breaker converts repeated failures (dial errors,
// write errors, full send queues) into fast rejections with a half-open
// probe after backoff.
//
// The transport additionally coalesces per-link control messages (beacons
// and digests share one container frame, flushed on a short timer or size
// threshold) and implements MultiSender: a fan-out message is encoded once
// into a pooled, reference-counted buffer and the same bytes are queued to
// every link — the zero-copy half of the relay hot path.
type TCPTransport struct {
	ln    net.Listener
	cfg   TCPConfig
	inbox *PrioInbox

	fabricDrops    atomic.Uint64
	sendQueueDrops atomic.Uint64
	breakerRejects atomic.Uint64
	coalesceMsgs   atomic.Uint64
	coalesceFlush  atomic.Uint64

	mu       sync.Mutex
	conns    map[string]*tcpConn
	breakers map[string]*breaker
	inbound  map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// outItem is one queued outbound unit: pre-encoded frame bytes, possibly
// shared across a fan-out via refs.
type outItem struct {
	frame []byte
	refs  *atomic.Int32 // nil: exclusive pooled frame
	msgs  int           // messages carried (coalesced containers carry >1)
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
	sendq      chan outItem
	writerDone chan struct{} // closed when the writer goroutine exits

	mu     sync.Mutex
	coal   *coalescer // nil when coalescing is disabled
	closed bool
}

var (
	_ Transport       = (*TCPTransport)(nil)
	_ DropCounter     = (*TCPTransport)(nil)
	_ QueueReporter   = (*TCPTransport)(nil)
	_ MultiSender     = (*TCPTransport)(nil)
	_ BreakerReporter = (*TCPTransport)(nil)
)

// ListenTCP starts an endpoint on addr ("host:port"; ":0" picks a free
// port) with the default configuration (coalescing on).
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

// InboxQueue exposes the prioritized inbox for tests and experiments that
// assert on per-class accept/shed accounting.
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

// OutboundQueueDepth sums the frames waiting in every link's send queue —
// the outbound counterpart of QueueDepth for the overload gauges.
func (t *TCPTransport) OutboundQueueDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, c := range t.conns {
		total += len(c.sendq)
	}
	return total
}

// CoalesceStats reports how many control messages travelled inside
// container frames and how many container frames carried them.
func (t *TCPTransport) CoalesceStats() CoalesceStats {
	return CoalesceStats{
		Msgs:   t.coalesceMsgs.Load(),
		Frames: t.coalesceFlush.Load(),
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
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		// The prioritized inbox sheds (with per-class accounting) when full
		// rather than stalling the peer.
		t.inbox.Push(msg)
	}
}

// Send queues msg for addr over a cached connection, dialling on demand and
// retrying once with a fresh connection when the cached one has died. The
// actual write happens on the link's writer goroutine, so a slow peer
// delays only its own queue; a full queue or an open breaker fails the Send
// immediately. Coalescable control messages may be buffered up to the
// coalesce window; everything else is queued at once (flushing any pending
// container frame first, so per-link ordering holds).
func (t *TCPTransport) Send(addr string, msg wire.Message) error {
	return t.sendVia(addr, func(c *tcpConn) error { return c.send(&msg) })
}

// sendVia is the one send path: breaker check, enqueue on the cached
// connection, a single redial when that connection is closing or poisoned,
// and the drop accounting. enqueue hands the message to a link's queue —
// c.send for one message, c.sendShared for a fan-out frame.
func (t *TCPTransport) sendVia(addr string, enqueue func(c *tcpConn) error) error {
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
		err := enqueue(c)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrSendQueueFull) {
			t.sendQueueDrops.Add(1)
			brk.onFailure()
			return fmt.Errorf("transport: send to %s: %w", addr, err)
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
	if err := enqueue(c); err != nil {
		if errors.Is(err, ErrSendQueueFull) {
			t.sendQueueDrops.Add(1)
		} else {
			t.dropConn(addr, c)
			t.fabricDrops.Add(1)
		}
		brk.onFailure()
		return fmt.Errorf("transport: send to %s: %w", addr, err)
	}
	return nil
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
	for _, addr := range addrs {
		err := t.sendVia(addr, func(c *tcpConn) error { return c.sendShared(frame, refs) })
		if err != nil {
			// The link never took ownership of its reference.
			releaseItem(outItem{frame: frame, refs: refs})
		}
		if each != nil {
			each(addr, err)
		}
	}
	releaseItem(outItem{frame: frame, refs: refs})
}

func (t *TCPTransport) dial(addr string) (*tcpConn, error) {
	t.mu.Lock()
	brk := t.breakerLocked(addr)
	t.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := &tcpConn{
		t:          t,
		addr:       addr,
		conn:       conn,
		brk:        brk,
		writeTmo:   t.cfg.WriteTimeout,
		sendq:      make(chan outItem, t.cfg.SendQueueLen),
		writerDone: make(chan struct{}),
	}
	if t.cfg.CoalesceWindow >= 0 { // negative disables coalescing
		c.coal = newCoalescer(t.cfg.CoalesceWindow, t.cfg.CoalesceLimit, c.kickFlush)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if old, dup := t.conns[addr]; dup {
		// A concurrent dial won; keep the existing connection.
		t.mu.Unlock()
		conn.Close()
		return old, nil
	}
	t.conns[addr] = c
	t.wg.Add(1)
	t.mu.Unlock()
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

// send encodes one message and queues it, buffering
// coalescable control messages in the per-link container frame instead.
func (c *tcpConn) send(msg *wire.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coal != nil && coalescable(msg.Type) {
		full, err := c.coal.add(msg)
		if err != nil {
			return err
		}
		if full {
			return c.flushLocked()
		}
		return nil
	}
	if err := c.flushLocked(); err != nil {
		return err
	}
	buf := wire.GetEncodeBuffer()
	frame, err := wire.AppendMessage(buf, msg)
	if err != nil {
		wire.PutEncodeBuffer(buf)
		return err
	}
	if err := c.enqueueLocked(outItem{frame: frame, msgs: 1}); err != nil {
		wire.PutEncodeBuffer(frame)
		return err
	}
	return nil
}

// sendShared queues a fan-out frame whose buffer is shared across links.
// On success the queue owns one of the frame's references.
func (c *tcpConn) sendShared(frame []byte, refs *atomic.Int32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.flushLocked(); err != nil {
		return err
	}
	return c.enqueueLocked(outItem{frame: frame, refs: refs, msgs: 1})
}

// enqueueLocked offers an item to the send queue without blocking. Caller
// holds c.mu (which is what makes flush-then-enqueue sequences atomic and
// preserves per-link FIFO order across senders).
func (c *tcpConn) enqueueLocked(it outItem) error {
	if c.closed {
		return errConnClosing
	}
	select {
	case c.sendq <- it:
		return nil
	default:
		return ErrSendQueueFull
	}
}

var errConnClosing = errors.New("transport: connection closing")

// flushLocked queues the pending container frame, if any. Coalesced types
// are loss-tolerant (re-sent every epoch), so a full send queue sheds the
// container — counted, breaker-notified — without failing the caller.
func (c *tcpConn) flushLocked() error {
	if c.coal == nil || c.coal.pendingMsgs() == 0 {
		return nil
	}
	sub, msgs := c.coal.take()
	buf := wire.GetEncodeBuffer()
	frame, err := wire.AppendCoalesced(buf, sub)
	if err != nil {
		wire.PutEncodeBuffer(buf)
		return err
	}
	if err := c.enqueueLocked(outItem{frame: frame, msgs: msgs}); err != nil {
		wire.PutEncodeBuffer(frame)
		if errors.Is(err, ErrSendQueueFull) {
			c.t.sendQueueDrops.Add(uint64(msgs))
			c.brk.onFailure()
			return nil
		}
		return err
	}
	c.t.coalesceMsgs.Add(uint64(msgs))
	c.t.coalesceFlush.Add(1)
	return nil
}

// kickFlush is the coalesce timer callback: flush whatever is pending.
func (c *tcpConn) kickFlush() {
	c.mu.Lock()
	err := c.flushLocked()
	c.mu.Unlock()
	if err != nil && !errors.Is(err, errConnClosing) {
		// The pending beacons/digests are lost, exactly like any other
		// message a dying connection takes with it — the next epoch re-sends
		// them.
		c.t.fabricDrops.Add(1)
	}
}

// writeLoop drains the send queue onto the socket. It is the only goroutine
// touching the socket's write side, so a stalled peer blocks only this loop.
// The first write failure trips the breaker and drops the connection; the
// rest of the queue drains as accounted loss.
func (c *tcpConn) writeLoop() {
	defer c.t.wg.Done()
	defer close(c.writerDone)
	broken := false
	for it := range c.sendq {
		if broken {
			c.t.fabricDrops.Add(uint64(it.msgs))
			releaseItem(it)
			continue
		}
		err := c.writeItem(it)
		releaseItem(it)
		if err != nil {
			broken = true
			c.t.fabricDrops.Add(uint64(it.msgs))
			c.brk.onFailure()
			c.t.detachConn(c.addr, c)
			c.closeAbort()
		} else {
			c.brk.onSuccess()
		}
	}
}

func (c *tcpConn) writeItem(it outItem) error {
	if err := c.deadline(); err != nil {
		return err
	}
	_, err := c.conn.Write(it.frame)
	return err
}

func (c *tcpConn) deadline() error {
	if c.writeTmo > 0 {
		return c.conn.SetWriteDeadline(time.Now().Add(c.writeTmo))
	}
	return nil
}

// close queues pending control messages best-effort, closes the send queue,
// gives the writer a bounded window to drain what was already accepted
// (matching the old synchronous path's "Send returned nil means the bytes
// went out" expectation for graceful shutdowns), then closes the socket.
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

// shut marks the connection closing and closes the send queue, reporting
// whether this call did the transition.
func (c *tcpConn) shut() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	_ = c.flushLocked()
	c.closed = true
	if c.coal != nil && c.coal.timer != nil {
		c.coal.timer.Stop()
		c.coal.timer = nil
	}
	close(c.sendq)
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
