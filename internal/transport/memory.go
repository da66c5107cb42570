package transport

import (
	"fmt"
	"sync"
	"time"

	"groupcast/internal/wire"
)

// MemNetwork is an in-process message fabric for live nodes: endpoints
// register by name and exchange wire messages with configurable latency on
// the wall clock. It carries the examples, the in-memory benchmark
// workloads, the overload experiment and the tests of the live loop;
// deterministic runs of real nodes use node.Cluster instead. The fabric
// itself loses nothing but inbox overflow; wrap its endpoints in a
// ChaosNetwork to inject loss.
type MemNetwork struct {
	mu        sync.Mutex
	endpoints map[string]*MemEndpoint
	latency   func(from, to string) time.Duration
	seq       int

	inboxCapacity  int
	classlessInbox bool
}

// NewMemNetwork returns an empty fabric with zero latency.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{endpoints: make(map[string]*MemEndpoint)}
}

// SetInboxPolicy configures the inbound queue of endpoints created after
// the call: capacity (<= 0 means DefaultInboxCapacity) and the shed policy
// (classless reproduces the legacy single-FIFO queue that sheds arrivals
// regardless of class). It stays settable as the classless arm of
// `groupcast-sim -exp overload`.
func (n *MemNetwork) SetInboxPolicy(capacity int, classless bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inboxCapacity = capacity
	n.classlessInbox = classless
}

// SetLatency installs a latency model (nil means instant delivery). It is
// the fabric's distance model: a live cluster placed on a simulated
// underlay gets its link delays from here.
func (n *MemNetwork) SetLatency(f func(from, to string) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = f
}

// Endpoint creates (or returns an error for a duplicate) named endpoint.
func (n *MemNetwork) Endpoint(name string) (*MemEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.endpoints[name]; dup {
		return nil, fmt.Errorf("transport: duplicate endpoint %q", name)
	}
	ep := &MemEndpoint{
		net:  n,
		addr: name,
		// A deep prioritized inbox so slow receivers don't wedge the whole
		// fabric; the node layer drains promptly, and under overload control
		// messages displace best-effort traffic instead of being shed.
		inbox: NewPrioInbox(n.inboxCapacity, n.classlessInbox),
	}
	n.endpoints[name] = ep
	return ep, nil
}

// NextEndpoint creates an endpoint with a generated unique name.
func (n *MemNetwork) NextEndpoint() *MemEndpoint {
	n.mu.Lock()
	n.seq++
	name := fmt.Sprintf("mem-%d", n.seq)
	n.mu.Unlock()
	ep, err := n.Endpoint(name)
	if err != nil {
		// Names are fabric-generated and unique; a collision is a bug.
		panic(err)
	}
	return ep
}

// deliver routes one message, applying latency.
func (n *MemNetwork) deliver(from, to string, msg wire.Message) error {
	n.mu.Lock()
	dst, ok := n.endpoints[to]
	var delay time.Duration
	if n.latency != nil {
		delay = n.latency(from, to)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if delay <= 0 {
		dst.inbox.Push(msg)
		return nil
	}
	// Only the delayed copy lives on the heap; a closure over msg itself
	// would move every message there, delayed or not.
	delayed := msg
	time.AfterFunc(delay, func() { dst.inbox.Push(delayed) })
	return nil
}

// MemEndpoint is one node's attachment to a MemNetwork.
type MemEndpoint struct {
	net   *MemNetwork
	addr  string
	inbox *PrioInbox

	mu     sync.Mutex
	closed bool
}

var (
	_ Transport     = (*MemEndpoint)(nil)
	_ DropCounter   = (*MemEndpoint)(nil)
	_ QueueReporter = (*MemEndpoint)(nil)
	_ MultiSender   = (*MemEndpoint)(nil)
)

// Addr returns the endpoint's fabric name.
func (e *MemEndpoint) Addr() string { return e.addr }

// Send routes a message through the fabric.
func (e *MemEndpoint) Send(addr string, msg wire.Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return e.net.deliver(e.addr, addr, msg)
}

// SendMany implements MultiSender. The fabric moves message values, not
// bytes, so there is no encoding to share — this is the plain loop, kept so
// mem-backed tests exercise the same node fan-out path as TCP.
func (e *MemEndpoint) SendMany(addrs []string, msg wire.Message, each func(addr string, err error)) {
	for _, addr := range addrs {
		err := e.Send(addr, msg)
		if each != nil {
			each(addr, err)
		}
	}
}

// Recv returns the inbound stream.
func (e *MemEndpoint) Recv() <-chan wire.Message { return e.inbox.Recv() }

// QueueDepth samples the inbox occupancy.
func (e *MemEndpoint) QueueDepth() int { return e.inbox.Depth() }

// QueueCapacity reports the inbox bound.
func (e *MemEndpoint) QueueCapacity() int { return e.inbox.Capacity() }

// InboxQueue is the prioritized inbox: a node's loop drains it, and tests
// and experiments read its per-class accept/shed accounting.
func (e *MemEndpoint) InboxQueue() *PrioInbox { return e.inbox }

// DropStats reports the endpoint's loss counters: inbound messages shed on
// a full inbox, broken down by class.
func (e *MemEndpoint) DropStats() DropStats { return e.inbox.dropStats() }

// Close detaches the endpoint from the fabric.
func (e *MemEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()

	e.inbox.Close()
	return nil
}
