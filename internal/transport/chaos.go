package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"groupcast/internal/wire"
)

// This file is the deterministic fault-injection layer of the live runtime.
// A ChaosNetwork wraps any set of Transport endpoints and applies seeded,
// per-link fault rules (drop, delay, duplicate, reorder), network
// partitions (split-brain and heal), and crash-stops, either directly or
// from a scripted fault schedule. It is the runtime's one loss model: every
// link owns an independent random stream derived purely from (seed, from,
// to), so one link's traffic volume never perturbs another link's fault
// decisions. Its delays and schedule run on the clock of the endpoints it
// wraps (see after), so over a virtual-time cluster a run is one seed's.

// LinkRule is the fault policy of one directed link (or the default policy
// of every link). The zero value injects nothing.
type LinkRule struct {
	// Drop is the probability a message is silently lost.
	Drop float64
	// DropFirst deterministically drops the first N messages on the link
	// (useful for exercising retry paths in tests).
	DropFirst int
	// Delay is added to every delivery; Jitter adds a uniform extra in
	// [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back ReorderDelay
	// (letting later messages overtake it). ReorderDelay defaults to 4×
	// Delay+Jitter, or 20ms when the link is otherwise instant.
	Reorder      float64
	ReorderDelay time.Duration
}

func (r LinkRule) reorderDelay() time.Duration {
	if r.ReorderDelay > 0 {
		return r.ReorderDelay
	}
	if d := 4 * (r.Delay + r.Jitter); d > 0 {
		return d
	}
	return 20 * time.Millisecond
}

// ChaosStats counts the fault layer's interventions across all links.
type ChaosStats struct {
	// RuleDrops counts messages lost to per-link Drop/DropFirst rules.
	RuleDrops uint64
	// PartitionDrops counts messages blocked by an active partition.
	PartitionDrops uint64
	// CrashDrops counts messages to or from a crash-stopped endpoint.
	CrashDrops uint64
	// Duplicates counts extra copies injected.
	Duplicates uint64
	// Reordered counts messages held back by a reorder rule.
	Reordered uint64
	// Delivered counts messages handed to the wrapped transport.
	Delivered uint64
}

// FaultEvent is one step of a scripted fault schedule: at offset At from
// PlaySchedule, apply the fault. Build events with PartitionAt, HealAt,
// CrashAt and LinkRuleAt.
type FaultEvent struct {
	At    time.Duration
	apply func(n *ChaosNetwork)
}

// PartitionAt isolates the island addresses from every other endpoint at
// the given offset (split-brain: traffic crosses the island boundary in
// neither direction). Multiple concurrent islands are supported; an
// endpoint belongs to at most one island (the most recent wins).
func PartitionAt(at time.Duration, island ...string) FaultEvent {
	cp := append([]string(nil), island...)
	return FaultEvent{At: at, apply: func(n *ChaosNetwork) { n.Partition(cp...) }}
}

// HealAt dissolves every partition at the given offset.
func HealAt(at time.Duration) FaultEvent {
	return FaultEvent{At: at, apply: func(n *ChaosNetwork) { n.Heal() }}
}

// CrashAt crash-stops the endpoint at the given offset: all of its inbound
// and outbound traffic is dropped from then on.
func CrashAt(at time.Duration, addr string) FaultEvent {
	return FaultEvent{At: at, apply: func(n *ChaosNetwork) { n.Crash(addr) }}
}

// LinkRuleAt installs a fault rule at the given offset. Empty from/to mean
// "every link" (the default rule).
func LinkRuleAt(at time.Duration, from, to string, rule LinkRule) FaultEvent {
	return FaultEvent{
		At: at,
		apply: func(n *ChaosNetwork) {
			if from == "" && to == "" {
				n.SetDefaultRule(rule)
			} else {
				n.SetLinkRule(from, to, rule)
			}
		},
	}
}

type linkKey struct{ from, to string }

type linkState struct {
	rng  *rand.Rand
	sent int
}

// ChaosNetwork coordinates fault injection across a set of wrapped
// endpoints. All methods are safe for concurrent use.
type ChaosNetwork struct {
	seed int64

	mu          sync.Mutex
	defaultRule LinkRule
	linkRules   map[linkKey]LinkRule
	links       map[linkKey]*linkState
	island      map[string]int // addr → island ID; absent = mainland (0)
	islandSeq   int
	crashed     map[string]bool
	endpoints   map[string]*ChaosEndpoint
	clock       afterFuncer // nil: the wall clock

	ruleDrops      atomic.Uint64
	partitionDrops atomic.Uint64
	crashDrops     atomic.Uint64
	duplicates     atomic.Uint64
	reordered      atomic.Uint64
	delivered      atomic.Uint64
}

// afterFuncer is a transport on a virtual clock (a node.Cluster endpoint):
// AfterFunc runs f once d of that clock has passed.
type afterFuncer interface {
	AfterFunc(d time.Duration, f func())
}

// NewChaosNetwork returns a fault-free chaos layer; every random decision
// it will ever make derives from seed and the link identity.
func NewChaosNetwork(seed int64) *ChaosNetwork {
	return &ChaosNetwork{
		seed:      seed,
		linkRules: make(map[linkKey]LinkRule),
		links:     make(map[linkKey]*linkState),
		island:    make(map[string]int),
		crashed:   make(map[string]bool),
		endpoints: make(map[string]*ChaosEndpoint),
	}
}

// Wrap attaches an endpoint to the chaos layer. All of the endpoint's
// outbound traffic passes through the fault rules.
func (n *ChaosNetwork) Wrap(inner Transport) *ChaosEndpoint {
	ep := &ChaosEndpoint{net: n, inner: inner, addr: inner.Addr()}
	n.mu.Lock()
	n.endpoints[ep.addr] = ep
	if clock, ok := inner.(afterFuncer); ok {
		n.clock = clock
	}
	n.mu.Unlock()
	return ep
}

// after runs f once d has passed: on the virtual clock of the wrapped
// endpoints when they have one, else on the wall clock. It is the one place
// the chaos layer picks a clock; the fault schedule and every link delay go
// through it.
func (n *ChaosNetwork) after(d time.Duration, f func()) {
	n.mu.Lock()
	clock := n.clock
	n.mu.Unlock()
	if clock != nil {
		clock.AfterFunc(d, f)
		return
	}
	time.AfterFunc(d, f)
}

// SetDefaultRule installs the fault policy applied to links without a
// specific rule.
func (n *ChaosNetwork) SetDefaultRule(rule LinkRule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultRule = rule
}

// SetLinkRule installs a fault policy for one directed link.
func (n *ChaosNetwork) SetLinkRule(from, to string, rule LinkRule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkRules[linkKey{from, to}] = rule
}

// Partition isolates the island addresses from every other endpoint.
// Messages cross the island boundary in neither direction until Heal.
func (n *ChaosNetwork) Partition(island ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.islandSeq++
	for _, addr := range island {
		n.island[addr] = n.islandSeq
	}
}

// Heal dissolves every partition.
func (n *ChaosNetwork) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.island = make(map[string]int)
}

// Crash crash-stops an endpoint: from now on all of its inbound and
// outbound messages are dropped (the wrapped node keeps running, but the
// network behaves as if the host died).
func (n *ChaosNetwork) Crash(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[addr] = true
}

// Stats snapshots the chaos layer's counters.
func (n *ChaosNetwork) Stats() ChaosStats {
	return ChaosStats{
		RuleDrops:      n.ruleDrops.Load(),
		PartitionDrops: n.partitionDrops.Load(),
		CrashDrops:     n.crashDrops.Load(),
		Duplicates:     n.duplicates.Load(),
		Reordered:      n.reordered.Load(),
		Delivered:      n.delivered.Load(),
	}
}

// PlaySchedule arms the scripted fault schedule; offsets are measured from
// now on the network's clock.
func (n *ChaosNetwork) PlaySchedule(events []FaultEvent) {
	for _, ev := range events {
		n.after(ev.At, func() { ev.apply(n) })
	}
}

// linkStateLocked returns the link's decision stream, creating it with a
// seed derived purely from (network seed, from, to).
func (n *ChaosNetwork) linkStateLocked(k linkKey) *linkState {
	ls := n.links[k]
	if ls == nil {
		ls = &linkState{rng: rand.New(rand.NewSource(mixSeed(n.seed, k.from, k.to)))}
		n.links[k] = ls
	}
	return ls
}

// mixSeed folds the link identity into the network seed (splitmix64-style,
// mirroring the experiment pipeline's cellSeed).
func mixSeed(seed int64, parts ...string) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		for _, c := range []byte(p) {
			h ^= uint64(c)
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
		}
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}

// verdict is the fate the chaos layer assigns one message.
type verdict struct {
	drop    bool
	dupe    bool
	delay   time.Duration
	blocked string // "" or the counter the drop belongs to
}

// judge decides a message's fate under the current rules. It consumes the
// link's random stream only for links with probabilistic rules.
func (n *ChaosNetwork) judge(from, to string) verdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed[from] || n.crashed[to] {
		return verdict{drop: true, blocked: "crash"}
	}
	if n.island[from] != n.island[to] {
		return verdict{drop: true, blocked: "partition"}
	}
	rule, ok := n.linkRules[linkKey{from, to}]
	if !ok {
		rule = n.defaultRule
	}
	if rule == (LinkRule{}) {
		return verdict{}
	}
	ls := n.linkStateLocked(linkKey{from, to})
	ls.sent++
	if ls.sent <= rule.DropFirst {
		return verdict{drop: true, blocked: "rule"}
	}
	if rule.Drop > 0 && ls.rng.Float64() < rule.Drop {
		return verdict{drop: true, blocked: "rule"}
	}
	v := verdict{delay: rule.Delay}
	if rule.Jitter > 0 {
		v.delay += time.Duration(ls.rng.Int63n(int64(rule.Jitter)))
	}
	if rule.Duplicate > 0 && ls.rng.Float64() < rule.Duplicate {
		v.dupe = true
	}
	if rule.Reorder > 0 && ls.rng.Float64() < rule.Reorder {
		v.delay += rule.reorderDelay()
		n.reordered.Add(1)
	}
	return v
}

// ChaosEndpoint is one endpoint's attachment to a ChaosNetwork; it
// implements Transport by delegating to the wrapped endpoint after the
// fault rules have had their say.
type ChaosEndpoint struct {
	net   *ChaosNetwork
	inner Transport
	addr  string

	closed     atomic.Bool
	chaosDrops atomic.Uint64
	duplicates atomic.Uint64
}

var (
	_ Transport   = (*ChaosEndpoint)(nil)
	_ DropCounter = (*ChaosEndpoint)(nil)
)

// Addr returns the wrapped endpoint's address.
func (e *ChaosEndpoint) Addr() string { return e.addr }

// Recv returns the wrapped endpoint's inbound stream.
func (e *ChaosEndpoint) Recv() <-chan wire.Message { return e.inner.Recv() }

// InboxQueue is the wrapped endpoint's inbox: faults are injected on the
// send side, so inbound messages land there untouched.
func (e *ChaosEndpoint) InboxQueue() *PrioInbox { return e.inner.InboxQueue() }

// Breakers passes through the wrapped transport's circuit-breaker snapshot
// (nil when it has none) so breaker state stays observable under fault
// injection.
func (e *ChaosEndpoint) Breakers() []BreakerInfo {
	if br, ok := e.inner.(BreakerReporter); ok {
		return br.Breakers()
	}
	return nil
}

// Close closes the wrapped endpoint.
func (e *ChaosEndpoint) Close() error {
	e.closed.Store(true)
	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()
	return e.inner.Close()
}

// DropStats combines the chaos layer's per-endpoint drops with the wrapped
// transport's own counters (including the per-class shed breakdown, so shed
// accounting stays visible through the chaos layer).
func (e *ChaosEndpoint) DropStats() DropStats {
	out := DropStats{
		FabricDrops: e.chaosDrops.Load(),
		Duplicates:  e.duplicates.Load(),
	}
	if dc, ok := e.inner.(DropCounter); ok {
		out.Add(dc.DropStats())
	}
	return out
}

// Send passes the message through the fault rules and on to the wrapped
// transport. Dropped messages report success (they are lost on the wire,
// not rejected locally); delayed deliveries are asynchronous and their
// errors are swallowed, as on a real network.
func (e *ChaosEndpoint) Send(addr string, msg wire.Message) error {
	if e.closed.Load() {
		return ErrClosed
	}
	v := e.net.judge(e.addr, addr)
	if v.drop {
		e.chaosDrops.Add(1)
		switch v.blocked {
		case "crash":
			e.net.crashDrops.Add(1)
			// A crashed peer refuses connections on a real network: fail
			// the send so callers can account for it.
			return fmt.Errorf("%w: %s crashed", ErrUnreachable, addr)
		case "partition":
			e.net.partitionDrops.Add(1)
			return fmt.Errorf("%w: %s partitioned from %s", ErrUnreachable, addr, e.addr)
		default:
			e.net.ruleDrops.Add(1)
		}
		return nil
	}
	copies := 1
	if v.dupe {
		copies = 2
		e.duplicates.Add(1)
		e.net.duplicates.Add(1)
	}
	if v.delay <= 0 {
		var err error
		for i := 0; i < copies; i++ {
			e.net.delivered.Add(1)
			if sendErr := e.inner.Send(addr, msg); sendErr != nil && err == nil {
				err = sendErr
			}
		}
		return err
	}
	// Only the delayed copy lives on the heap; a closure over msg itself
	// would move every message there, delayed or not.
	delayed := msg
	for i := 0; i < copies; i++ {
		e.net.delivered.Add(1)
		e.net.after(v.delay, func() { _ = e.inner.Send(addr, delayed) })
	}
	return nil
}
