package node

import (
	"fmt"
	"sync/atomic"
	"time"

	"groupcast/internal/sim"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// Cluster runs nodes in virtual time on the caller's goroutine, over a
// fabric of its own endpoints. Its heap is a sim.Engine whose float keys
// only order entries: each entry keeps its exact time, and that time is the
// only clock the nodes read. An event is what run makes of it — one step,
// then endEvent, which here calls the PayloadHandler inline — and after it
// the node's n.armed becomes a wake entry. A Send is an entry at now +
// latency that pushes into the destination's inbox and drains it. A message
// may cost its node a service time (SetServiceTime): the endpoint is then
// busy, arrivals wait in its inbox, which fills, sheds and displaces by
// class as a live one does, and the drain goes on at an entry at
// busy-until. Timer wakes and posted bodies are not held back. On a driven
// node post runs its body as one event and await steps the heap until the
// flow is done. Nothing here reads the wall clock, so one seed gives one
// run. A transport.ChaosNetwork over the endpoints takes the heap for its
// clock: its fault schedule and link delays are entries too.
type Cluster struct {
	eng     *sim.Engine
	now     time.Time
	latency func(from, to string) time.Duration
	eps     map[string]*clusterEndpoint
	wakes   uint64   // the last wake entry's token
	free    []*entry // fired entries, for reuse

	inboxCap  int // the inbox policy of endpoints attached from now on
	classless bool
	service   func(to string, typ wire.Type) time.Duration
}

// clusterOrigin is every cluster's time zero, so a run's times do not
// depend on when it ran.
var clusterOrigin = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// NewCluster returns an empty cluster whose links take latency(from, to)
// (nil: no latency).
func NewCluster(latency func(from, to string) time.Duration) *Cluster {
	return &Cluster{eng: sim.New(), now: clusterOrigin, latency: latency, eps: map[string]*clusterEndpoint{}}
}

// SetInboxPolicy sets the inbound queue of endpoints attached after the
// call: its capacity (<= 0 means transport.DefaultInboxCapacity) and its
// shed policy (classless is the single FIFO that sheds arrivals whatever
// their class).
func (c *Cluster) SetInboxPolicy(capacity int, classless bool) {
	c.inboxCap, c.classless = capacity, classless
}

// SetServiceTime makes each message event cost its node service(to, typ)
// of virtual time, during which the node takes no other message (nil, or
// 0 for a message: none). It takes the type, not the message, so a popped
// message stays on the stack.
func (c *Cluster) SetServiceTime(service func(to string, typ wire.Type) time.Duration) {
	c.service = service
}

// Now is the cluster's virtual time.
func (c *Cluster) Now() time.Time { return c.now }

// Endpoint attaches a new endpoint named addr to the cluster's fabric.
func (c *Cluster) Endpoint(addr string) (transport.Transport, error) {
	if c.eps[addr] != nil {
		return nil, fmt.Errorf("node: duplicate cluster endpoint %q", addr)
	}
	e := &clusterEndpoint{c: c, addr: addr, inbox: transport.NewPrioInbox(c.inboxCap, c.classless)}
	c.eps[addr] = e
	return e, nil
}

// Start makes n, built over one of the cluster's endpoints (or a chaos
// wrapper of one) and never started, a driven node, and runs its first
// event now.
func (c *Cluster) Start(n *Node) {
	e := c.eps[n.Addr()]
	if e == nil || e.node != nil || n.started {
		panic(fmt.Sprintf("node: %s cannot start on this cluster", n.Addr()))
	}
	e.node, n.vt = n, e
	n.started = true
	e.event(event{flow: n.begin})
	e.drain()
}

// Run runs every entry due within d, then moves the clock to now+d.
func (c *Cluster) Run(d time.Duration) {
	end := c.now.Add(d)
	c.eng.RunUntil(sim.Time(float64(end.Sub(clusterOrigin)) / float64(time.Millisecond)))
	if end.After(c.now) {
		c.now = end
	}
}

// entry is one heap entry: msg for dst, with a nonzero tok a wake of dst's
// node that runs only while tok is dst.wake, or with fn a chaos step.
// Entries are reused, so a delivery does not put a message on the heap.
type entry struct {
	c    *Cluster
	at   time.Time
	dst  *clusterEndpoint
	msg  wire.Message
	tok  uint64
	fn   func()
	fire sim.Handler // run, bound once
}

func (c *Cluster) schedule(at time.Time, dst *clusterEndpoint, msg *wire.Message, tok uint64, fn func()) {
	var en *entry
	if k := len(c.free); k > 0 {
		en, c.free = c.free[k-1], c.free[:k-1]
	} else {
		en = &entry{c: c}
		en.fire = en.run
	}
	if at.Before(c.now) {
		at = c.now
	}
	en.at, en.dst, en.tok, en.fn = at, dst, tok, fn
	if msg != nil {
		en.msg = *msg
	}
	if _, err := c.eng.At(sim.Time(float64(at.Sub(clusterOrigin))/float64(time.Millisecond)), en.fire); err != nil {
		panic(err) // keys out of order
	}
}

func (en *entry) run(*sim.Engine, sim.Time) {
	c, dst, tok, fn := en.c, en.dst, en.tok, en.fn
	if en.at.After(c.now) {
		c.now = en.at
	}
	pushed := fn == nil && tok == 0 && dst.inbox.Push(en.msg)
	en.msg, en.dst, en.fn = wire.Message{}, nil, nil
	c.free = append(c.free, en) // free before the event, which may schedule
	switch {
	case fn != nil:
		fn()
	case pushed:
		dst.drain()
	case tok != 0 && tok == dst.wake:
		dst.wakeAt = time.Time{}
		dst.event(event{})
	}
}

// clusterEndpoint is a node's transport on a cluster and the driver's
// handle on it. wake is the token of the node's live wake entry, set for
// wakeAt (zero when none is pending). busy is set while a message's service
// time runs.
type clusterEndpoint struct {
	c      *Cluster
	addr   string
	inbox  *transport.PrioInbox
	node   *Node
	wake   uint64
	wakeAt time.Time
	busy   bool
	closed bool
}

var _ transport.DropCounter = (*clusterEndpoint)(nil)

func (e *clusterEndpoint) Addr() string                     { return e.addr }
func (e *clusterEndpoint) InboxQueue() *transport.PrioInbox { return e.inbox }
func (e *clusterEndpoint) Recv() <-chan wire.Message        { return e.inbox.Recv() }

// DropStats reports the inbox's sheds, by class.
func (e *clusterEndpoint) DropStats() transport.DropStats { return e.inbox.DropStats() }

func (e *clusterEndpoint) Send(addr string, msg wire.Message) error {
	dst := e.c.eps[addr]
	switch {
	case e.closed:
		return transport.ErrClosed
	case dst == nil:
		return fmt.Errorf("%w: %q", transport.ErrUnknownPeer, addr)
	}
	var lat time.Duration
	if e.c.latency != nil {
		lat = e.c.latency(e.addr, addr)
	}
	e.c.schedule(e.c.now.Add(lat), dst, &msg, 0, nil)
	return nil
}

// AfterFunc runs f once d of the cluster's time has passed, as an entry of
// its own. It makes the heap the clock of a transport.ChaosNetwork that
// wraps the endpoint.
func (e *clusterEndpoint) AfterFunc(d time.Duration, f func()) {
	e.c.schedule(e.c.now.Add(d), nil, nil, 0, f)
}

// Close detaches the endpoint: sends to it then fail as to an unknown peer.
func (e *clusterEndpoint) Close() error {
	if !e.closed {
		e.closed = true
		delete(e.c.eps, e.addr)
		e.inbox.Close()
	}
	return nil
}

// drain runs one event per queued message until the inbox is empty or a
// message's service time makes the endpoint busy; then an entry at
// busy-until drains on. Before Start messages wait.
func (e *clusterEndpoint) drain() {
	var msg wire.Message // every event's message, as on the live loop
	for e.node != nil && !e.busy && e.inbox.Pop(&msg) {
		if e.c.service != nil {
			if d := e.c.service(e.addr, msg.Type); d > 0 {
				e.busy = true
				e.c.schedule(e.c.now.Add(d), nil, nil, 0, e.resume)
			}
		}
		e.event(event{msg: &msg})
	}
}

// resume ends a service time and drains on.
func (e *clusterEndpoint) resume() {
	e.busy = false
	e.drain()
}

// event runs ev on the node now and puts its next deadline on the heap,
// unless a wake is pending for it or earlier. A closed node or endpoint,
// like a stopped loop, takes only posted bodies.
func (e *clusterEndpoint) event(ev event) {
	n := e.node
	if (n.closed || e.closed) && ev.flow == nil {
		return
	}
	n.step(e.c.now, ev)
	n.endEvent()
	if armed := n.armed; !armed.IsZero() && (e.wakeAt.IsZero() || armed.Before(e.wakeAt)) {
		e.c.wakes++
		e.wake, e.wakeAt = e.c.wakes, armed
		e.c.schedule(armed, e, nil, e.wake, nil)
	}
}

func (e *clusterEndpoint) post(body func()) { e.event(event{flow: body}) }

// await steps the heap until the flow Node.await posted reports on res.
func (e *clusterEndpoint) await(res chan error) error {
	for {
		select {
		case err := <-res:
			return err
		default:
		}
		if !e.c.eng.Step() {
			return ErrClosed // nothing left that could answer
		}
	}
}

// deliver calls the handler on what the node's event released, in release
// order, counting each as the handler goroutine does. The slice leaves the
// node first: the handler's own API calls are events of their own.
func (e *clusterEndpoint) deliver(n *Node) {
	ds := n.released
	n.released = nil
	for i := 0; i < len(ds) && n.handler != nil; i++ {
		atomic.AddUint64(&n.stats.Delivered, 1)
		n.observeDeliver(e.c.now, &ds[i])
		n.handler(ds[i].gid, ds[i].src, ds[i].Data)
	}
	clear(ds)
	if n.released == nil {
		n.released = ds[:0]
	}
}
