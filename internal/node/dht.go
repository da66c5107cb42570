package node

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"groupcast/internal/dht"
	"groupcast/internal/wire"
)

// This file is the live half of the structured discovery plane
// (internal/dht holds the pure Kademlia machinery): the node keeps an
// XOR-metric routing table fed by the traffic it already exchanges
// (heartbeats, DHT replies), answers FindNode/FindValue/Store RPCs, and
// resolves group charters through iterative lookups before Join falls back
// to the unstructured ripple search. Rendezvous nodes replicate their group
// charter record to the k closest nodes on creation, promotion, and a
// periodic republish that rides the heartbeat epochs; the record store's
// epoch guard keeps a stale root from clobbering its successor's record.

// DHT maintenance parameters.
const (
	// dhtRecordTTL is how long a replicated charter record lives without a
	// refresh; the owning rendezvous republishes well inside it.
	dhtRecordTTL = 30 * time.Second
	// dhtRepublishEpochs is how many heartbeat epochs pass between a
	// rendezvous re-replicating its charter records, and dhtRefreshEpochs
	// between background self-lookups that keep the routing table's near
	// buckets fresh — both before churn adaptation (see dhtCadence).
	dhtRepublishEpochs = 5
	dhtRefreshEpochs   = 8
	// dhtQueryTimeout bounds one DHT RPC round trip; a silent contact is
	// treated as failed and the lookup routes around it.
	dhtQueryTimeout = 250 * time.Millisecond
)

// errDhtQueryTimeout reports a DHT RPC whose reply never arrived within
// dhtQueryTimeout — the lookup treats the contact as failed and routes
// around it.
var errDhtQueryTimeout = errors.New("node: dht query timed out")

// dhtState is the node's discovery-plane state (nil when DisableDHT).
type dhtState struct {
	id    dht.ID
	table *dht.Table
	store *dht.Store
	// churn estimates the observed churn rate (bucket evictions, neighbour
	// removals, record expiries per second) that drives adaptive maintenance
	// pacing.
	churn *dht.ChurnEstimator

	mu sync.Mutex
	// pinging single-flights the ping-before-evict probe per stale contact;
	// storing single-flights the charter republish per group (a slow lookup
	// must not stack a second one behind it).
	pinging map[string]bool
	storing map[string]bool
	// republishAt / refreshAt are the next heartbeat-epoch counts at which
	// the periodic republish and self-lookup are due; dhtEpoch advances them
	// by the current (possibly churn-adapted) cadence after each firing.
	republishAt int
	refreshAt   int
}

// dhtEnabled reports whether the discovery plane is on.
func (n *Node) dhtEnabled() bool { return n.dht != nil }

// dhtObserve folds one live peer into the routing table. On a full bucket
// Kademlia prefers the oldest known contact: the newcomer is held off while
// a background probe pings the stalest entry, which is evicted only if the
// probe fails (ping-before-evict). At most one probe per stale contact is
// in flight.
func (n *Node) dhtObserve(info wire.PeerInfo) {
	d := n.dht
	if d == nil || info.Addr == "" || info.Addr == n.self.Addr {
		return
	}
	c := dht.Contact{ID: dht.NodeID(info.Addr), Info: info}
	cand, full := d.table.Observe(c)
	if !full {
		return
	}
	d.mu.Lock()
	if d.pinging[cand.Info.Addr] {
		d.mu.Unlock()
		return
	}
	d.pinging[cand.Info.Addr] = true
	d.mu.Unlock()
	release := func() {
		d.mu.Lock()
		delete(d.pinging, cand.Info.Addr)
		d.mu.Unlock()
	}
	if !n.spawn(func() {
		defer release()
		if _, _, err := n.dhtQuery(cand, d.id, ""); err != nil {
			d.table.Evict(cand, c)
			n.dhtNoteChurn(1)
			n.dhtRescue(cand.Info.Addr)
		}
	}) {
		release()
	}
}

// dhtQuery issues one DHT RPC against contact c and waits for its reply:
// a FindValue for the group's record when groupID is set, a FindNode toward
// target otherwise. The reply's contacts (and record, on a value hit) are
// returned in wire order; a timeout or send failure marks the contact
// failed for the calling lookup.
func (n *Node) dhtQuery(c dht.Contact, target dht.ID, groupID string) ([]dht.Contact, *dht.Record, error) {
	reqID, ch := n.nextReq()
	defer n.dropReq(reqID)
	msg := wire.Message{From: n.selfInfo(), ReqID: reqID}
	if groupID != "" {
		msg.Type = wire.TDhtFindValue
		msg.GroupID = groupID
	} else {
		msg.Type = wire.TDhtFindNode
		msg.Target = target.Bytes()
	}
	if err := n.send(c.Info.Addr, msg); err != nil {
		return nil, nil, err
	}
	select {
	case resp := <-ch:
		contacts := make([]dht.Contact, 0, len(resp.Neighbors))
		for _, info := range resp.Neighbors {
			if info.Addr == "" || info.Addr == n.self.Addr {
				continue
			}
			contacts = append(contacts, dht.Contact{ID: dht.NodeID(info.Addr), Info: info})
		}
		var rec *dht.Record
		if resp.Type == wire.TDhtFindValueResp && resp.Rendezvous.Addr != "" && resp.Epoch > 0 {
			rec = &dht.Record{
				GroupID:    resp.GroupID,
				Rendezvous: resp.Rendezvous,
				Mode:       resp.Mode,
				Epoch:      resp.Epoch,
				Charter:    resp.Charter,
			}
		}
		return contacts, rec, nil
	case <-time.After(dhtQueryTimeout):
		return nil, nil, errDhtQueryTimeout
	case <-n.stop:
		return nil, nil, ErrClosed
	}
}

// dhtLookup runs one iterative lookup from this node's routing table:
// a value lookup for groupID's record when set, a node lookup toward target
// otherwise. The queries of one wave are in flight together, so a wave costs
// one round trip (or one dhtQueryTimeout when a contact is dead), not alpha
// of them. Counts one DhtLookups tick and feeds the latency histogram.
func (n *Node) dhtLookup(target dht.ID, groupID string) dht.Result {
	start := time.Now()
	seeds := n.dht.table.Closest(target, dht.DefaultK)
	res := dht.LookupWaves(target, seeds, dht.DefaultK, dht.DefaultAlpha,
		func(wave []dht.Contact, t dht.ID) []dht.Reply {
			replies := make([]dht.Reply, len(wave))
			var wg sync.WaitGroup
			for i, c := range wave {
				wg.Add(1)
				go func(r *dht.Reply, c dht.Contact) {
					defer wg.Done()
					r.Contacts, r.Record, r.Err = n.dhtQuery(c, t, groupID)
				}(&replies[i], c)
			}
			wg.Wait()
			return replies
		})
	atomic.AddUint64(&n.stats.DhtLookups, 1)
	n.metrics.dhtLookup.ObserveDurationMs(float64(time.Since(start)) / float64(time.Millisecond))
	return res
}

// dhtResolve finds the group's charter record: the local store first (we
// may be a replica holder or have cached an earlier lookup), then a value
// lookup across the DHT. A hit is cached locally so repeated joins of a
// popular group cost one lookup, not one per join.
func (n *Node) dhtResolve(groupID string) (dht.Record, bool) {
	d := n.dht
	if d == nil {
		return dht.Record{}, false
	}
	key := dht.KeyID(groupID)
	now := time.Now()
	if rec, ok := d.store.Get(key, now); ok && rec.Rendezvous.Addr != n.self.Addr {
		return rec, true
	}
	res := n.dhtLookup(key, groupID)
	if res.Record == nil || res.Record.Rendezvous.Addr == "" ||
		res.Record.Rendezvous.Addr == n.self.Addr {
		return dht.Record{}, false
	}
	d.store.Put(key, *res.Record, time.Now())
	return *res.Record, true
}

// dhtStoreCharter replicates the group's current charter record to the k
// nodes closest to the group key (plus the local store). Only the group's
// rendezvous stores; the record carries the succession epoch so replicas'
// epoch guards reject a stale root's republish after a takeover. Store
// RPCs carry a fresh correlation ID but no waiter — the acks matter only
// as liveness traffic for the receivers' routing tables.
func (n *Node) dhtStoreCharter(groupID string) {
	d := n.dht
	if d == nil {
		return
	}
	n.mu.Lock()
	gs := n.groups[groupID]
	if gs == nil || !gs.rendezvous {
		n.mu.Unlock()
		return
	}
	rec := dht.Record{
		GroupID:    groupID,
		Rendezvous: n.selfInfoLocked(),
		Mode:       gs.mode,
		Epoch:      gs.epoch,
		Charter:    n.charterForLocked(groupID, gs),
	}
	n.mu.Unlock()
	key := dht.KeyID(groupID)
	d.store.Put(key, rec, time.Now())
	res := n.dhtLookup(key, "")
	msg := wire.Message{
		Type:       wire.TDhtStore,
		From:       n.selfInfo(),
		GroupID:    groupID,
		Rendezvous: rec.Rendezvous,
		Mode:       rec.Mode,
		Epoch:      rec.Epoch,
		Charter:    rec.Charter,
	}
	for _, c := range res.Closest {
		m := msg
		m.ReqID = n.nextMsgID()
		_ = n.send(c.Info.Addr, m)
	}
	atomic.AddUint64(&n.stats.DhtStores, 1)
}

// dhtRepublishAsync replicates the group's charter record in the
// background, at most one republish per group in flight at a time (the
// lookup inside can block for several query timeouts; stacking republishes
// behind it would stall nothing but waste messages).
func (n *Node) dhtRepublishAsync(groupID string) {
	d := n.dht
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.storing[groupID] {
		d.mu.Unlock()
		return
	}
	d.storing[groupID] = true
	d.mu.Unlock()
	release := func() {
		d.mu.Lock()
		delete(d.storing, groupID)
		d.mu.Unlock()
	}
	if !n.spawn(func() {
		defer release()
		n.dhtStoreCharter(groupID)
	}) {
		release()
	}
}

// dhtNoteChurn feeds observed churn events (bucket evictions, neighbour
// removals, record expiries) into the sliding-window estimator that drives
// adaptive maintenance pacing.
func (n *Node) dhtNoteChurn(events int) {
	if d := n.dht; d != nil {
		d.churn.Note(events, time.Now())
	}
}

// DhtChurnRate returns the observed churn rate in events per second over
// the estimator's sliding window (0 when the DHT is disabled).
func (n *Node) DhtChurnRate() float64 {
	d := n.dht
	if d == nil {
		return 0
	}
	return d.churn.Rate(time.Now())
}

// Adaptive-pacing thresholds, in churn events observed per heartbeat epoch:
// at or below calm the maintenance cadence relaxes to 2× dhtRepublishEpochs
// and dhtRefreshEpochs, at or above storm it tightens to ¼ of them (and
// rescue-republish reacts to individual evictions in between the periodic
// rounds).
const (
	DefaultDHTChurnCalm  = 0.01
	DefaultDHTChurnStorm = 0.2
)

// dhtCadence returns the current republish and refresh cadences in epochs:
// the observed churn rate maps between a relaxed cadence when calm and a
// tight one under storm — bounding record-loss probability under churn
// without paying storm-level maintenance traffic in a quiet overlay.
func (n *Node) dhtCadence(now time.Time) (republish, refresh int) {
	d := n.dht
	if d == nil || n.cfg.HeartbeatInterval <= 0 {
		return dhtRepublishEpochs, dhtRefreshEpochs
	}
	perEpoch := d.churn.Rate(now) * n.cfg.HeartbeatInterval.Seconds()
	republish = dht.AdaptiveEpochs(perEpoch, DefaultDHTChurnCalm, DefaultDHTChurnStorm,
		2*dhtRepublishEpochs, dhtRepublishEpochs/4)
	refresh = dht.AdaptiveEpochs(perEpoch, DefaultDHTChurnCalm, DefaultDHTChurnStorm,
		2*dhtRefreshEpochs, dhtRefreshEpochs/4)
	return republish, refresh
}

// dhtRescue re-replicates held records whose replica set just lost a member:
// when the evicted or removed peer was (in this node's view) among the k
// closest to a held record's key, the record is re-pushed so the replica set
// heals now instead of waiting out the owner's next periodic republish. Owned
// charters go through the full republish (fresh lookup, k stores); records
// held for remote owners are cheaply re-pushed to the k closest contacts in
// the local table — the receivers' epoch guards make over-pushing safe.
func (n *Node) dhtRescue(lostAddr string) {
	d := n.dht
	if d == nil || lostAddr == "" {
		return
	}
	lost := dht.NodeID(lostAddr)
	for _, rec := range d.store.Snapshot() {
		key := dht.KeyID(rec.GroupID)
		closest := d.table.Closest(key, dht.DefaultK)
		inSet := len(closest) < dht.DefaultK
		if !inSet {
			inSet = dht.Closer(key, lost, closest[len(closest)-1].ID)
		}
		if !inSet {
			continue
		}
		if rec.Rendezvous.Addr == n.self.Addr {
			atomic.AddUint64(&n.stats.DhtRescues, 1)
			n.dhtRepublishAsync(rec.GroupID)
			continue
		}
		gid := rec.GroupID
		d.mu.Lock()
		if d.storing[gid] {
			d.mu.Unlock()
			continue
		}
		d.storing[gid] = true
		d.mu.Unlock()
		release := func() {
			d.mu.Lock()
			delete(d.storing, gid)
			d.mu.Unlock()
		}
		rec := rec
		if !n.spawn(func() {
			defer release()
			n.dhtPushRecord(rec)
		}) {
			release()
			return
		}
		atomic.AddUint64(&n.stats.DhtRescues, 1)
	}
}

// dhtPushRecord re-pushes one held record to the k contacts closest to its
// key in the local table — no iterative lookup, so a rescue costs at most k
// messages. Used when a replica holder drops out of the k-closest set.
func (n *Node) dhtPushRecord(rec dht.Record) {
	d := n.dht
	if d == nil {
		return
	}
	key := dht.KeyID(rec.GroupID)
	msg := wire.Message{
		Type:       wire.TDhtStore,
		From:       n.selfInfo(),
		GroupID:    rec.GroupID,
		Rendezvous: rec.Rendezvous,
		Mode:       rec.Mode,
		Epoch:      rec.Epoch,
		Charter:    rec.Charter,
	}
	for _, c := range d.table.Closest(key, dht.DefaultK) {
		m := msg
		m.ReqID = n.nextMsgID()
		_ = n.send(c.Info.Addr, m)
	}
}

// dhtEpoch is the discovery plane's share of one heartbeat epoch: fold the
// live neighbour set into the routing table (bucket maintenance piggybacks
// on the beacons the node already runs), expire dead records, republish
// owned charters and refresh the table with a background self-lookup on the
// churn-adapted cadence (see dhtCadence).
func (n *Node) dhtEpoch(epochs int) {
	d := n.dht
	if d == nil {
		return
	}
	n.mu.Lock()
	infos := make([]wire.PeerInfo, 0, len(n.neighbors))
	for _, nb := range n.neighbors {
		if !nb.suspect {
			infos = append(infos, nb.info)
		}
	}
	n.mu.Unlock()
	for _, info := range infos {
		n.dhtObserve(info)
	}
	now := time.Now()
	if swept := d.store.Sweep(now); swept > 0 {
		n.dhtNoteChurn(swept)
	}
	republishEvery, refreshEvery := n.dhtCadence(now)
	d.mu.Lock()
	republishDue := epochs >= d.republishAt
	if republishDue {
		d.republishAt = epochs + republishEvery
	}
	refreshDue := epochs >= d.refreshAt
	if refreshDue {
		d.refreshAt = epochs + refreshEvery
	}
	d.mu.Unlock()
	if republishDue {
		n.mu.Lock()
		var gids []string
		for gid, gs := range n.groups {
			if gs.rendezvous {
				gids = append(gids, gid)
			}
		}
		n.mu.Unlock()
		for _, gid := range gids {
			n.dhtRepublishAsync(gid)
		}
	}
	if refreshDue {
		n.spawn(func() { _ = n.dhtLookup(d.id, "") })
	}
}

// handleDhtFindNode answers with the k known contacts closest to the
// requested target.
func (n *Node) handleDhtFindNode(msg wire.Message) {
	d := n.dht
	if d == nil || msg.From.Addr == "" {
		return
	}
	n.dhtObserve(msg.From)
	target, ok := dht.FromBytes(msg.Target)
	if !ok {
		target = d.id
	}
	_ = n.send(msg.From.Addr, wire.Message{
		Type:      wire.TDhtFindNodeResp,
		From:      n.selfInfo(),
		ReqID:     msg.ReqID,
		Neighbors: n.dhtNeighborsFor(target, msg.From.Addr),
	})
}

// handleDhtFindValue answers with the group's record when this node holds
// it, and with the closest contacts to the group key otherwise — the
// Kademlia value-lookup step.
func (n *Node) handleDhtFindValue(msg wire.Message) {
	d := n.dht
	if d == nil || msg.From.Addr == "" || msg.GroupID == "" {
		return
	}
	n.dhtObserve(msg.From)
	key := dht.KeyID(msg.GroupID)
	resp := wire.Message{
		Type:    wire.TDhtFindValueResp,
		From:    n.selfInfo(),
		ReqID:   msg.ReqID,
		GroupID: msg.GroupID,
	}
	if rec, ok := d.store.Get(key, time.Now()); ok {
		resp.Rendezvous = rec.Rendezvous
		resp.Mode = rec.Mode
		resp.Epoch = rec.Epoch
		resp.Charter = rec.Charter
	} else {
		resp.Neighbors = n.dhtNeighborsFor(key, msg.From.Addr)
	}
	_ = n.send(msg.From.Addr, resp)
}

// handleDhtStore applies one replicated charter record through the store's
// epoch guard and acks with the epoch this node now holds (the sender's on
// acceptance, the winning record's when a stale root was rejected).
func (n *Node) handleDhtStore(msg wire.Message) {
	d := n.dht
	if d == nil || msg.From.Addr == "" || msg.GroupID == "" ||
		msg.Rendezvous.Addr == "" || msg.Epoch == 0 {
		return
	}
	n.dhtObserve(msg.From)
	key := dht.KeyID(msg.GroupID)
	now := time.Now()
	d.store.Put(key, dht.Record{
		GroupID:    msg.GroupID,
		Rendezvous: msg.Rendezvous,
		Mode:       msg.Mode,
		Epoch:      msg.Epoch,
		Charter:    msg.Charter,
	}, now)
	held, _ := d.store.Get(key, now)
	_ = n.send(msg.From.Addr, wire.Message{
		Type:    wire.TDhtStoreAck,
		From:    n.selfInfo(),
		ReqID:   msg.ReqID,
		GroupID: msg.GroupID,
		Epoch:   held.Epoch,
	})
}

// dhtNeighborsFor projects the k closest known contacts to target into
// wire form, excluding the requester itself.
func (n *Node) dhtNeighborsFor(target dht.ID, exclude string) []wire.PeerInfo {
	cs := n.dht.table.Closest(target, dht.DefaultK)
	out := make([]wire.PeerInfo, 0, len(cs))
	for _, c := range cs {
		if c.Info.Addr == exclude {
			continue
		}
		out = append(out, c.Info)
	}
	return out
}

// DhtView is the discovery plane's introspection snapshot, served by
// /debug/dht.
type DhtView struct {
	Enabled bool   `json:"enabled"`
	ID      string `json:"id,omitempty"`
	// TableSize is the routing table's live contact count; Buckets maps
	// occupied bucket index → depth (index 159 holds the closest peers).
	TableSize int         `json:"table_size,omitempty"`
	Buckets   map[int]int `json:"buckets,omitempty"`
	// Records is how many group charter records this node replicates.
	Records int `json:"records,omitempty"`
	// Groups lists the replicated records (group, root, epoch).
	Groups []DhtRecordView `json:"groups,omitempty"`
	// Lookups/Fallbacks/Stores mirror the Stats counters.
	Lookups   uint64 `json:"lookups"`
	Fallbacks uint64 `json:"fallbacks"`
	Stores    uint64 `json:"stores"`
}

// DhtRecordView is one replicated charter record in a DhtView.
type DhtRecordView struct {
	Group      string `json:"group"`
	Rendezvous string `json:"rendezvous"`
	Epoch      uint64 `json:"epoch"`
}

// DhtView snapshots the discovery plane's state.
func (n *Node) DhtView() DhtView {
	d := n.dht
	if d == nil {
		return DhtView{}
	}
	v := DhtView{
		Enabled:   true,
		ID:        d.id.String(),
		TableSize: d.table.Len(),
		Buckets:   d.table.BucketSizes(),
		Lookups:   atomic.LoadUint64(&n.stats.DhtLookups),
		Fallbacks: atomic.LoadUint64(&n.stats.DhtFallbacks),
		Stores:    atomic.LoadUint64(&n.stats.DhtStores),
	}
	recs := d.store.Snapshot()
	v.Records = len(recs)
	for _, r := range recs {
		v.Groups = append(v.Groups, DhtRecordView{
			Group: r.GroupID, Rendezvous: r.Rendezvous.Addr, Epoch: r.Epoch,
		})
	}
	sort.Slice(v.Groups, func(i, j int) bool { return v.Groups[i].Group < v.Groups[j].Group })
	return v
}
