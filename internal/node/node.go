// Package node implements the live GroupCast middleware runtime: a peer that
// bootstraps into an unstructured overlay with the utility-aware neighbour
// selection of Section 3.3, exchanges epoch heartbeats, advertises
// communication groups with the SSA scheme, joins groups along reverse
// advertisement paths (with ripple search fallback), and disseminates
// payloads over the resulting spanning trees. It runs over any
// transport.Transport — the in-memory fabric for single-process deployments
// and tests, or TCP for real networks.
//
// The selection rules are not written here. Bootstrap's neighbour choice is
// core.SelectNeighbors, the back-connect verdict core.AcceptBackLink, the
// advertisement relay's choice core.SelectForwarders, and the charter's
// deputy roster protocol.DeputyRoster; r̂, where a rule needs it, is
// core.ResourceLevel over the peers at hand. The simulator calls the same
// functions.
//
// What runs where: a started node's state has one owner, its event loop
// (run, loops.go). The loop pops the transport's inbox itself, on the
// inbox's doorbell. Each event — an inbound message, the body of an API
// call, a timer wake — is one step(now, event) at one stamped time, n.now,
// which every timed rule reads; tests call step with synthetic times.
// Everything timed, the periodic duties included, is an entry in the loop's
// call table (calls.go). Every exported method that touches node state runs
// its body on the loop through post or await (calls.go), so nothing locks.
// The payloads an event releases go through one FIFO hand-off to the handler
// goroutine, which runs only while a PayloadHandler is set: the loop never
// runs application code.
package node

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/core"
	"groupcast/internal/dht"
	"groupcast/internal/recovery"
	"groupcast/internal/reliable"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// Config parameterizes a live node.
type Config struct {
	// Capacity is the node's advertised capacity (64 kbps connection units).
	Capacity float64
	// Coord is the node's network coordinate. Nil means the origin.
	Coord coords.Point
	// QuotaBase gives the neighbour quota base + quotaSlope·log10(capacity),
	// as in the simulator.
	QuotaBase float64
	// FallbackAccept is pb: the probability of accepting a connection that
	// the PB_k draw rejected.
	FallbackAccept float64
	// HeartbeatInterval is the epoch length. Zero disables heartbeats.
	HeartbeatInterval time.Duration
	// MissedHeartbeatsToFail marks a silent neighbour dead (paper: 2). It
	// stays settable because a split-brain heal needs a death grace longer
	// than the partition: at the default the grace ends no later than deputy
	// #0's suspicion, so a split that elects a successor also drops the
	// cross-partition links the two roots would reconcile over.
	MissedHeartbeatsToFail int
	// AdvertiseFraction is the share of neighbours an SSA announcement is
	// forwarded to at each hop.
	AdvertiseFraction float64
	// Seed makes the node's random choices reproducible.
	Seed int64
	// BeaconGraceEpochs is how many heartbeat epochs a tree node tolerates
	// without a rendezvous beacon before declaring itself detached and
	// reattaching. Beacons flow rendezvous → children every epoch; they are
	// what lets severed subtrees (and accidental parent cycles) detect that
	// they no longer reach the root. 0 uses the default.
	BeaconGraceEpochs int
	// AdvertiseRefreshEpochs makes a rendezvous re-flood its group
	// announcements every N maintenance epochs so late joiners hold fresh
	// reverse paths (0 disables refresh).
	AdvertiseRefreshEpochs int
	// EnableVivaldi turns on live network coordinates: heartbeat RTTs feed a
	// Vivaldi spring model and the node's advertised coordinate tracks it
	// (Section 3.1 names Vivaldi as one of the coordinate options). When
	// false the static Coord is advertised unchanged.
	EnableVivaldi bool
	// Deputies is how many highest-utility children a rendezvous replicates
	// its group charter to — the succession roster size. When the root dies,
	// deputy #i promotes itself after SuspectEpochs+i silent beacon epochs.
	// DefaultConfig sets 3; 0 disables succession entirely (a dead
	// rendezvous then kills its groups, the pre-succession behaviour).
	Deputies int

	// DisableDHT turns off the structured discovery plane: no routing
	// table, no record replication, and Join goes straight to the reverse
	// advertisement path / ripple search. The DHT is on by default — a join
	// still prefers a known reverse path, so enabling it only adds the
	// O(log N) resolve between that and the flood.
	DisableDHT bool

	// StatePath enables crash–restart recovery: the node persists a small
	// state file (identity, group charters, reliable high-water marks, DHT
	// contacts) there every stateSaveEpochs via atomic rename, and New
	// reloads it when the file's identity matches the transport address — a
	// restarted node then resumes FIFO streams instead of rejoining amnesiac.
	// Empty disables persistence. See internal/recovery.
	StatePath string

	// OverloadSampleInterval paces the pressure sampler of the
	// graceful-degradation controller (0 uses the default of 100ms).
	OverloadSampleInterval time.Duration

	// TelemetryGossip is how many OTHER nodes' digests ride each outgoing
	// heartbeat/ack/beacon besides the node's own, cycled round-robin
	// through the fleet view (0 uses 1 — sized to keep the piggyback under
	// the 128-byte/beacon budget).
	TelemetryGossip int
	// DisableTelemetry turns the fleet plane off entirely: no history, no
	// fleet view, no SLO rules, and no Health field on outgoing messages
	// (the wire encoding is then byte-identical to a pre-telemetry node's).
	// It stays settable as the control arm of the ≤ 5 % publish-overhead
	// gate (TestTelemetryPublishOverhead).
	DisableTelemetry bool

	// Tracer receives structured per-message trace events (see
	// internal/trace). Nil disables tracing; the hot path then pays a single
	// nil check per message. Metrics are independent of the tracer and
	// always on.
	Tracer *trace.Tracer
}

// DefaultConfig returns a live config mirroring the simulator defaults.
func DefaultConfig(capacity float64, coord coords.Point, seed int64) Config {
	return Config{
		Capacity:               capacity,
		Coord:                  coord,
		QuotaBase:              4,
		FallbackAccept:         core.DefaultFallbackAccept,
		HeartbeatInterval:      2 * time.Second,
		MissedHeartbeatsToFail: 2,
		AdvertiseFraction:      0.4,
		Deputies:               3,
		Seed:                   seed,
		// Periodic refresh keeps reverse paths fresh for late joiners and is
		// what lets conflicting roots discover each other after a partition
		// heals (the epoch on the flood demotes the losing root).
		AdvertiseRefreshEpochs: 15,
	}
}

// PayloadHandler receives group payloads delivered to a member node.
//
// It runs on the node's handler goroutine, never on its event loop: one call
// at a time, in release order — whether the payload was released by a live
// arrival, a digest, a NACK-sweep abandonment or a promotion — after the
// loop event that released it, and so after that event's forwards. It may
// call any API method except Close, which waits for it to return. A handler
// that blocks holds back only the deliveries behind it: they wait in the
// hand-off (the handler_queue_depth gauge) while the loop keeps relaying and
// heartbeating.
type PayloadHandler func(groupID string, from wire.PeerInfo, data []byte)

type neighborState struct {
	info    wire.PeerInfo
	lastAck time.Time
	// suspect marks a neighbour that missed a heartbeat and is being
	// re-probed; it clears on the next ack and escalates to dead when the
	// full grace elapses (the two-missed-heartbeats rule).
	suspect bool
}

type groupState struct {
	rendezvous bool
	member     bool
	parent     string // "" when root or detached
	// parentInfo is the parent's last-known full identity (addr-only right
	// after joinVia, refreshed with coordinates from beacons and join acks).
	// It is the child's grandparent in backupsForChild.
	parentInfo wire.PeerInfo
	children   map[string]wire.PeerInfo
	// mode is the group's delivery mode (a rendezvous property; members
	// learn it from advertisements, join acks, and beacons).
	mode wire.DeliveryMode
	// pub sequences this node's own publishes and retains them for NACKs.
	pub *reliable.SendBuffer
	// recv holds one sliding receive window per payload source: dedup, gap
	// detection, retransmit cache, and (ordered mode) in-order release.
	recv    map[string]*reliable.SourceWindow
	rdvInfo wire.PeerInfo
	// lastBeacon is when the rendezvous beacon last reached this node (set
	// when joinVia takes a parent, as a grace start).
	lastBeacon time.Time
	// rootPath lists this node's tree ancestors from the rendezvous (self
	// excluded), set by its parent's join ack and refreshed by beacons. Under
	// a parent, nil means the attachment is still in flight (see confirmed).
	rootPath []string
	// held are the joins not acked yet, by child (settleHeld answers them).
	held map[string]heldJoin
	// backups are this node's precomputed backup access points — tree
	// nodes outside its own subtree, handed down by the parent on beacons
	// and join acks. When the parent dies, failover tries them nearest
	// first before falling back to the ripple search.
	backups []wire.PeerInfo
	// epoch is the group root's succession epoch (1 at creation, +1 per
	// promotion); members learn it from beacons and advertisements, and
	// conflicting roots after a partition heal are resolved by comparing it.
	epoch uint64
	// deputies is the group's ordered succession roster as last replicated
	// by the root (beacons carry it down the whole tree).
	deputies []wire.PeerInfo
	// charter is the replicated group charter this node holds as a deputy
	// (zero Epoch = not a deputy). Holding a charter arms the succession
	// timer: when beacons stop, the deputy promotes from it.
	charter wire.Charter
	// lastRoot is when a rendezvous beacon last proved the root alive. It is
	// the succession clock — unlike lastBeacon it is never advanced by join
	// acks, so a deputy's suspicion is measured in genuine beacon silence.
	lastRoot time.Time
	// promoted marks a rendezvous that took the group over through
	// succession (joins it accepts afterwards are orphan re-absorptions).
	promoted bool
}

type heldJoin struct{ reqID, traceID uint64 } // what a held join's ack echoes

type adState struct {
	upstream   string
	rendezvous wire.PeerInfo
	mode       wire.DeliveryMode
	// epoch is the advertised root's succession epoch: a fresher-epoch flood
	// replaces the record, so reverse paths always lead to the live lineage.
	epoch uint64
}

// Node is one live GroupCast peer.
type Node struct {
	cfg Config
	tr  transport.Transport
	// inbox is tr's inbound queue, which the loop drains itself.
	inbox *transport.PrioInbox
	// multi is tr's fan-out fast path when it offers one (the TCP transport
	// encodes a frame once and writes the same bytes to every tree link);
	// nil means sendMany falls back to a per-link Send loop.
	multi transport.MultiSender

	// The rest of the node's state, self's coordinate included, belongs to
	// the loop (see post).
	//
	// now is the current event's time, stamped by run (or a test's step) and
	// never moved backwards; it is the node's only clock.
	now       time.Time
	self      wire.PeerInfo
	rng       *rand.Rand
	vivaldi   *coords.VivaldiNode
	neighbors map[string]*neighborState
	groups    map[string]*groupState
	adSeen    map[string]adState
	seenAds   *reliable.Dedup
	handler   PayloadHandler
	msgSeq    uint64
	started   bool
	closed    bool

	stats tally
	// overload is the graceful-degradation controller's state (see
	// overload.go).
	overload overloadState
	// tracer is the opt-in message tracer (nil = disabled); metrics is the
	// always-on instrument registry. See observe.go.
	tracer  *trace.Tracer
	metrics nodeMetrics
	// dht is the structured discovery plane (nil when DisableDHT). See
	// dht.go.
	dht *dhtState
	// telemetry is the fleet telemetry plane (nil when DisableTelemetry).
	// See telemetry.go.
	telemetry *telemetryState

	// recovered is the state reloaded from StatePath (nil on a fresh start);
	// epochNow counts heartbeat epochs from the persisted value up, and it
	// and lastSaveAt (set by each save) feed the state file, the final Close
	// snapshot and /debug/recovery. See recovery.go.
	recovered  *recovery.State
	epochNow   atomic.Int64
	lastSaveAt atomic.Int64

	// Loop-owned (loops.go, calls.go): the call table, its ReqID counter,
	// the Join scope new calls take, the timer and the deadline it is armed
	// for, the per-group attachment single-flight (repairs, held joins),
	// the payloads the current event released, and the hand-off to the
	// handler goroutine (nil while no handler is set).
	calls     map[uint64]*call
	reqSeq    uint64
	scope     uint64
	timer     *time.Timer
	armed     time.Time
	rejoining map[string]bool
	released  []delivery
	out       *handoff
	// lost is the last few neighbours this node dropped, oldest first: the
	// contacts it bootstraps through again once it has no neighbour left
	// (see epoch). rebooting marks that bootstrap in flight.
	lost      []string
	rebooting bool

	// The relay path's buffers, loop-owned and reused by every payload so a
	// relay event allocates nothing: the tree links a payload goes to
	// (forwardTargets), what its receive window released (handlePayload),
	// and each link's outcome of the last sendMany, which onLink — noteLink,
	// bound once by New — appends to.
	fwd       []string
	delivered []reliable.Delivery
	links     []linkOutcome
	onLink    func(addr string, err error)
	// posts carries API bodies onto the loop (see post); live is closed by
	// Start and exited when the loop returns.
	posts  chan func()
	live   chan struct{}
	exited chan struct{}
	// vt is the node's endpoint on the Cluster that drives it in virtual
	// time (cluster.go); nil for a node that runs its own loop.
	vt *clusterEndpoint

	stop chan struct{}
	done sync.WaitGroup
}

// Errors returned by the public API.
var (
	ErrNotStarted = errors.New("node: not started")
	ErrClosed     = errors.New("node: closed")
	ErrNoGroup    = errors.New("node: unknown group")
	ErrJoinFailed = errors.New("node: could not reach the group")
	ErrNotMember  = errors.New("node: not a group member")
	// ErrPublishFailed reports a publish that reached no tree link: every
	// downstream send failed immediately (partition, crashes, closed
	// transport), so the payload cannot have left this node.
	ErrPublishFailed = errors.New("node: publish reached no tree link")
	// ErrBackpressure reports a best-effort publish refused by admission
	// control: the node is in the degraded state (inbox or downstream
	// breakers saturated) and is shedding loss-tolerant work at the source
	// rather than amplifying the overload. Reliable-mode publishes are never
	// refused. Callers should back off and retry.
	ErrBackpressure = errors.New("node: overloaded, best-effort publish shed")
)

// New creates a node over the transport. Call Start before using it.
func New(tr transport.Transport, cfg Config) *Node {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.QuotaBase < 1 {
		cfg.QuotaBase = 4
	}
	if cfg.AdvertiseFraction <= 0 || cfg.AdvertiseFraction > 1 {
		cfg.AdvertiseFraction = 0.4
	}
	if cfg.MissedHeartbeatsToFail < 1 {
		cfg.MissedHeartbeatsToFail = 2
	}
	if cfg.BeaconGraceEpochs < 1 {
		cfg.BeaconGraceEpochs = 6
	}
	if cfg.OverloadSampleInterval <= 0 {
		cfg.OverloadSampleInterval = DefaultOverloadSampleInterval
	}
	if cfg.TelemetryGossip < 1 {
		cfg.TelemetryGossip = DefaultTelemetryGossip
	}
	coord := cfg.Coord
	if coord == nil {
		coord = coords.Point{0, 0, 0}
	}
	var vivaldi *coords.VivaldiNode
	if cfg.EnableVivaldi {
		vivaldi = coords.NewVivaldiNode(coords.DefaultVivaldiConfig(), cfg.Seed)
		coord = vivaldi.Coord()
	}
	n := &Node{
		cfg: cfg,
		tr:  tr,
		self: wire.PeerInfo{
			Addr:     tr.Addr(),
			Coord:    coord,
			Capacity: cfg.Capacity,
		},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		vivaldi:   vivaldi,
		neighbors: make(map[string]*neighborState),
		groups:    make(map[string]*groupState),
		adSeen:    make(map[string]adState),
		seenAds:   reliable.NewDedup(reliable.DefaultSeenMax, reliable.DefaultSeenTTL),
		tracer:    cfg.Tracer,
		inbox:     tr.InboxQueue(),
		calls:     make(map[uint64]*call),
		timer:     time.NewTimer(time.Hour), // armed by the call table
		rejoining: make(map[string]bool),
		posts:     make(chan func()),
		live:      make(chan struct{}),
		exited:    make(chan struct{}),
		stop:      make(chan struct{}),
	}
	n.multi, _ = tr.(transport.MultiSender)
	n.onLink = n.noteLink
	if vivaldi != nil {
		n.self.CoordErr = vivaldi.ErrorEstimate()
	}
	if !cfg.DisableDHT {
		id := dht.NodeID(n.self.Addr)
		// The churn estimator averages bucket evictions, neighbour removals,
		// and record expiries over a sliding window of 25 epochs (at least 2s).
		churnWindow := 25 * cfg.HeartbeatInterval
		if churnWindow < 2*time.Second {
			churnWindow = 2 * time.Second
		}
		n.dht = &dhtState{
			id:      id,
			table:   dht.NewTable(id, dht.DefaultK),
			store:   dht.NewStore(dhtRecordTTL),
			churn:   dht.NewChurnEstimator(churnWindow),
			pinging: make(map[string]bool),
			storing: make(map[string]bool),
		}
	}
	n.initObservability()
	n.initTelemetry()
	// Crash–restart recovery: reload the durable state last, once the DHT
	// table and telemetry epoch counter exist to be seeded.
	n.loadState()
	return n
}

// observeRTT feeds one RTT sample into the Vivaldi model and refreshes the
// node's advertised coordinate. No-op without EnableVivaldi.
func (n *Node) observeRTT(remote wire.PeerInfo, rttMillis float64) {
	if rttMillis <= 0 || n.vivaldi == nil {
		return
	}
	n.vivaldi.Update(coords.Point(remote.Coord), remote.CoordErr, rttMillis)
	// A fresh slice, never an in-place write: every message and record that
	// carries n.self shares its Coord.
	n.self.Coord = n.vivaldi.Coord()
	n.self.CoordErr = n.vivaldi.ErrorEstimate()
}

// Coord returns the node's current advertised coordinate (live under
// Vivaldi, static otherwise).
func (n *Node) Coord() coords.Point { return coords.Point(n.Info().Coord) }

// Info returns the node's identifier quadruplet, with a coordinate the
// caller owns.
func (n *Node) Info() (info wire.PeerInfo) {
	n.post(func() {
		info = n.self
		info.Coord = coords.Point(info.Coord).Clone()
	})
	return info
}

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.self.Addr }

// SetPayloadHandler installs the application callback for delivered
// payloads; nil removes it, and payloads released while none is set are
// dropped. Safe to call anytime, from the handler too. The handler
// goroutine runs while a handler is set.
func (n *Node) SetPayloadHandler(h PayloadHandler) {
	n.post(func() {
		n.handler = h
		switch {
		case n.vt != nil:
			// The cluster calls the handler inline after each event.
		case n.out != nil:
			n.out.push(nil, h)
			if h == nil {
				n.out = nil // its goroutine ends
			}
		case h != nil && !n.closed:
			n.out = &handoff{handler: h, bell: make(chan struct{}, 1)}
			n.done.Add(1)
			go n.deliver(n.out)
		}
	})
}

// Start launches the node's event loop.
func (n *Node) Start() {
	n.post(func() {
		if n.started || n.closed {
			return
		}
		n.started = true
		n.done.Add(1)
		go n.run()
		close(n.live)
	})
}

// Close stops the node: it notifies neighbours, stops its goroutines, and
// closes the transport. It must not be called from the PayloadHandler,
// whose return it waits for.
func (n *Node) Close() error {
	closing := false
	n.post(func() {
		if n.closed {
			return
		}
		n.closed, closing = true, true
		for _, addr := range sortedKeys(n.neighbors) {
			_ = n.send(addr, wire.Message{Type: wire.TLeave, From: n.self})
		}
	})
	if !closing {
		return nil
	}
	close(n.stop)
	err := n.tr.Close()
	n.done.Wait()
	// Final state snapshot once the loop stopped mutating, so a clean
	// shutdown persists the freshest high-water marks for the next start.
	n.saveState()
	// Flush and close the tracer's file sink only after every goroutine
	// stopped recording, so a clean shutdown leaves a complete, fsynced
	// trace file. The close error is counted into SinkErrors (surfaced via
	// Stats); the transport error is the one callers act on.
	_ = n.tracer.Close()
	return err
}

// Neighbors returns the current neighbour set.
func (n *Node) Neighbors() (out []wire.PeerInfo) {
	n.post(func() {
		out = make([]wire.PeerInfo, 0, len(n.neighbors))
		for _, nb := range n.neighbors {
			out = append(out, nb.info)
		}
	})
	return out
}

// NumNeighbors returns the neighbour count.
func (n *Node) NumNeighbors() (count int) {
	n.post(func() { count = len(n.neighbors) })
	return count
}

func (n *Node) dist(a, b wire.PeerInfo) float64 {
	return coords.Dist(coords.Point(a.Coord), coords.Point(b.Coord))
}

// candidate is peer p as the utility rules see it from this node.
func (n *Node) candidate(p wire.PeerInfo) core.Candidate {
	return core.Candidate{Capacity: p.Capacity, Distance: n.dist(n.self, p)}
}

// quotaSlope scales the neighbour quota with log10(capacity), as the
// simulator's bootstrap does.
const quotaSlope = 2

// quota is the neighbour count target from the capacity.
func (n *Node) quota() int {
	q := n.cfg.QuotaBase
	if n.cfg.Capacity > 1 {
		q += quotaSlope * math.Log10(n.cfg.Capacity)
	}
	return int(q)
}

// groupIDs lists the node's groups in sorted order. A walk over the groups
// that takes MsgIDs, draws from the seeded rng or releases payloads goes in
// this order, not map order, so one seed gives one run.
func (n *Node) groupIDs() []string { return sortedKeys(n.groups) }

// sortedKeys lists a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (n *Node) nextMsgID() uint64 {
	n.msgSeq++
	// Addresses are unique, so (addr, seq) is unique; fold the address into
	// the ID so independent nodes don't collide.
	var h uint64 = 1469598103934665603
	for _, c := range []byte(n.self.Addr) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h ^ (n.msgSeq << 1)
}

// Bootstrap joins the overlay through the given contact addresses: probe
// them for their neighbour lists, build the candidate set with occurrence
// frequencies, select up to quota neighbours by the Eq. 6 utility, and run
// the PB-gated connection protocol. At least one connection is guaranteed
// (an unconditional connect to the best candidate if every request was
// declined).
//
// Contacts are probed concurrently, and a probe whose response is lost is
// retried with exponential backoff, so dead contacts cost one shared wait
// instead of a full timeout each.
func (n *Node) Bootstrap(contacts []string, timeout time.Duration) error {
	return n.await(func(done func(error)) {
		if err := n.runnable(); err != nil || len(contacts) == 0 {
			done(err) // a nil error with no contacts: first node in the overlay
			return
		}
		n.bootstrap(contacts, timeout, done)
	})
}

// bootstrap is Bootstrap's probe phase on the loop: every contact is probed
// at once, and the connection phase starts when the last probe resolves.
// The per-attempt wait divides the caller's timeout so the phase stays
// inside roughly one timeout regardless of how many contacts are dead.
func (n *Node) bootstrap(contacts []string, timeout time.Duration, done func(error)) {
	freq := make(map[string]int)
	infos := make(map[string]wire.PeerInfo)
	left := len(contacts)
	probed := func(resp []wire.PeerInfo) {
		for _, info := range resp {
			if info.Addr != n.self.Addr {
				freq[info.Addr]++
				infos[info.Addr] = info
			}
		}
		if left--; left == 0 {
			n.connect(freq, infos, timeout, done)
		}
	}
	for _, addr := range contacts {
		if addr == n.self.Addr {
			probed(nil)
		} else {
			n.probe(addr, perAttempt(timeout), probed)
		}
	}
}

// connect is Bootstrap's connection phase: score the probed candidates,
// send the PB-gated requests, and finish once the node has a neighbour —
// checked as the requests go out and again on each accept. At timeout with
// still no neighbour it connects unconditionally to the best candidate so
// the node is never stranded.
func (n *Node) connect(freq map[string]int, infos map[string]wire.PeerInfo, timeout time.Duration, done func(error)) {
	if len(infos) == 0 {
		done(fmt.Errorf("node: no bootstrap contact answered"))
		return
	}
	// Selection draws from the seeded rng in candidate order, so the order
	// must not be map order.
	addrs := sortedKeys(infos)
	probed := make([]core.Probed, len(addrs))
	for i, addr := range addrs {
		probed[i] = core.Probed{Candidate: n.candidate(infos[addr]), Freq: freq[addr]}
	}
	chosen, _, err := core.SelectNeighbors(n.cfg.Capacity, probed, n.quota(), n.rng)
	if err != nil {
		done(fmt.Errorf("node: neighbour selection: %w", err))
		return
	}
	targets := make([]string, len(chosen))
	for i, idx := range chosen {
		targets[i] = addrs[idx]
	}
	req := wire.Message{Type: wire.TBackConnect, From: n.self}
	if len(n.neighbors) > 0 {
		n.ask(targets, req, timeout, func(wire.Message) bool { return true }, func() {})
		done(nil)
		return
	}
	// dispatch has already added the accepting peer when onReply runs.
	n.ask(targets, req, timeout,
		func(wire.Message) bool {
			done(nil)
			return true
		},
		func() {
			if len(n.neighbors) > 0 {
				done(nil)
				return
			}
			// Every request declined: connect to the best candidate.
			best := targets[0]
			n.addNeighbor(infos[best])
			done(n.send(best, wire.Message{Type: wire.TConnect, From: n.self}))
		})
}

// runnable reports whether the API may act on the node.
func (n *Node) runnable() error {
	if !n.started {
		return ErrNotStarted
	}
	if n.closed {
		return ErrClosed
	}
	return nil
}

func (n *Node) addNeighbor(info wire.PeerInfo) {
	if info.Addr == n.self.Addr {
		return
	}
	if _, dup := n.neighbors[info.Addr]; dup {
		n.neighbors[info.Addr].info = info
		return
	}
	n.neighbors[info.Addr] = &neighborState{info: info, lastAck: n.now}
}

// maxLost bounds the neighbours a node remembers for re-bootstrapping.
const maxLost = 8

func (n *Node) removeNeighborAndOrphans(addr string) (orphaned []string) {
	if _, ok := n.neighbors[addr]; ok {
		n.lost = append(slices.DeleteFunc(n.lost, func(a string) bool { return a == addr }), addr)
		if len(n.lost) > maxLost {
			n.lost = n.lost[1:]
		}
	}
	delete(n.neighbors, addr)
	for _, gid := range n.groupIDs() {
		gs := n.groups[gid]
		if gs.parent == addr {
			gs.parent = ""
			if gs.member && !gs.rendezvous {
				orphaned = append(orphaned, gid)
			}
		}
		delete(gs.children, addr)
		// NACK recovery must not keep aiming at the dead peer.
		clearLastHop(gs, addr)
	}
	// Reverse advertisement paths through the departed peer are dead.
	for gid, ad := range n.adSeen {
		if ad.upstream == addr {
			delete(n.adSeen, gid)
		}
	}
	// A peer the failure detector declared dead must not linger in the
	// routing table waiting for a ping-before-evict round.
	if n.dht != nil {
		n.dht.table.Remove(dht.NodeID(addr), addr)
		n.dhtNoteChurn(1)
		n.dhtRescue(addr)
	}
	return orphaned
}

// send wraps the transport send with accounting. All node code paths go
// through it.
func (n *Node) send(addr string, msg wire.Message) error {
	tickType(&n.stats.sent, msg.Type)
	err := n.tr.Send(addr, msg)
	if err != nil {
		atomic.AddUint64(&n.stats.SendErrors, 1)
	}
	return err
}

// linkOutcome is one link's result in a sendMany: its address, the
// transport's immediate error, and — only with a tracer set — when the
// transport reported it.
type linkOutcome struct {
	addr string
	err  error
	at   time.Time
}

// noteLink records one link's outcome into n.links. It is n.onLink, the one
// callback sendMany hands the transport.
func (n *Node) noteLink(addr string, err error) {
	l := linkOutcome{addr: addr, err: err}
	if n.tracer != nil {
		l.at = n.traceNow()
	}
	n.links = append(n.links, l)
}

// sendMany fans one message out to every addr, through the transport's
// encode-once fast path when it offers one (the TCP transport serializes the
// binary frame a single time and writes the same bytes to every link) and a
// per-link send loop otherwise. Accounting matches send — one sent tick per
// link, one SendErrors tick per immediate failure — and n.links holds every
// link's outcome, in order, until the next sendMany.
func (n *Node) sendMany(addrs []string, msg *wire.Message) {
	n.links = n.links[:0]
	if len(addrs) == 0 {
		return
	}
	if n.multi != nil {
		n.multi.SendMany(addrs, *msg, n.onLink)
	} else {
		for _, addr := range addrs {
			n.noteLink(addr, n.tr.Send(addr, *msg))
		}
	}
	for _, l := range n.links {
		tickType(&n.stats.sent, msg.Type)
		if l.err != nil {
			atomic.AddUint64(&n.stats.SendErrors, 1)
		}
	}
}
