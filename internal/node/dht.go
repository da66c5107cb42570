package node

import (
	"errors"
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
	// buckets fresh — both before churn adaptation (see dhtPeriod).
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

	// The rest belongs to the node's loop.
	//
	// pinging single-flights the ping-before-evict probe per stale contact;
	// storing single-flights the charter republish per group (a slow lookup
	// must not stack a second one behind it).
	pinging map[string]bool
	storing map[string]bool
}

// dhtObserve folds one live peer into the routing table. On a full bucket
// Kademlia prefers the oldest known contact: the newcomer is held off while
// a probe pings the stalest entry, which is evicted only if the probe fails
// (ping-before-evict). At most one probe per stale contact is in flight.
func (n *Node) dhtObserve(info wire.PeerInfo) {
	d := n.dht
	if d == nil || info.Addr == "" || info.Addr == n.self.Addr {
		return
	}
	c := dht.Contact{ID: dht.NodeID(info.Addr), Info: info}
	cand, full := d.table.Observe(c)
	if !full || d.pinging[cand.Info.Addr] {
		return
	}
	d.pinging[cand.Info.Addr] = true
	n.dhtQuery(cand, d.id, "", func(r dht.Reply) {
		delete(d.pinging, cand.Info.Addr)
		if r.Err != nil {
			d.table.Evict(cand, c)
			n.dhtNoteChurn(1)
			n.dhtRescue(cand.Info.Addr)
		}
	})
}

// dhtQuery issues one DHT RPC against contact c and hands done its reply:
// a FindValue for the group's record when groupID is set, a FindNode toward
// target otherwise. The reply's contacts (and record, on a value hit) come
// in wire order; a timeout or send failure marks the contact failed for
// the calling lookup.
func (n *Node) dhtQuery(c dht.Contact, target dht.ID, groupID string, done func(dht.Reply)) {
	msg := wire.Message{From: n.self}
	if groupID != "" {
		msg.Type = wire.TDhtFindValue
		msg.GroupID = groupID
	} else {
		msg.Type = wire.TDhtFindNode
		msg.Target = target.Bytes()
	}
	n.ask([]string{c.Info.Addr}, msg, dhtQueryTimeout,
		func(resp wire.Message) bool {
			r := dht.Reply{Contacts: make([]dht.Contact, 0, len(resp.Neighbors))}
			for _, info := range resp.Neighbors {
				if info.Addr == "" || info.Addr == n.self.Addr {
					continue
				}
				r.Contacts = append(r.Contacts, dht.Contact{ID: dht.NodeID(info.Addr), Info: info})
			}
			if resp.Type == wire.TDhtFindValueResp && resp.Rendezvous.Addr != "" && resp.Epoch > 0 {
				r.Record = &dht.Record{
					GroupID:    resp.GroupID,
					Rendezvous: resp.Rendezvous,
					Mode:       resp.Mode,
					Epoch:      resp.Epoch,
					Charter:    resp.Charter,
				}
			}
			done(r)
			return true
		},
		func() { done(dht.Reply{Err: errDhtQueryTimeout}) })
}

// dhtLookup runs one iterative lookup from this node's routing table and
// hands done the result: a value lookup for groupID's record when set, a
// node lookup toward target otherwise. The α queries of a wave are in flight
// together and the wave merges once all of them resolved, so a wave costs
// one round trip (or one dhtQueryTimeout when a contact is dead), not alpha
// of them. Counts one DhtLookups tick and feeds the latency histogram.
func (n *Node) dhtLookup(target dht.ID, groupID string, done func(dht.Result)) {
	start := n.now
	s := dht.NewStepper(target, n.dht.table.Closest(target, dht.DefaultK), dht.DefaultK, dht.DefaultAlpha)
	var wave func()
	wave = func() {
		contacts := s.Next()
		if len(contacts) == 0 {
			atomic.AddUint64(&n.stats.DhtLookups, 1)
			n.metrics.dhtLookup.ObserveDurationMs(float64(n.now.Sub(start)) / float64(time.Millisecond))
			done(s.Result())
			return
		}
		replies := make([]dht.Reply, len(contacts))
		left := len(contacts)
		for i, c := range contacts {
			n.dhtQuery(c, target, groupID, func(r dht.Reply) {
				replies[i] = r
				if left--; left == 0 {
					s.Merge(replies)
					wave()
				}
			})
		}
	}
	wave()
}

// dhtResolve finds the group's charter record: the local store first (we
// may be a replica holder or have cached an earlier lookup), then a value
// lookup across the DHT. A hit is cached locally so repeated joins of a
// popular group cost one lookup, not one per join.
func (n *Node) dhtResolve(groupID string, done func(rec dht.Record, ok bool)) {
	d := n.dht
	key := dht.KeyID(groupID)
	if rec, ok := d.store.Get(key, n.now); ok && rec.Rendezvous.Addr != n.self.Addr {
		done(rec, true)
		return
	}
	n.dhtLookup(key, groupID, func(res dht.Result) {
		if res.Record == nil || res.Record.Rendezvous.Addr == "" ||
			res.Record.Rendezvous.Addr == n.self.Addr {
			done(dht.Record{}, false)
			return
		}
		d.store.Put(key, *res.Record, n.now)
		done(*res.Record, true)
	})
}

// dhtRepublishAsync replicates the group's current charter record to the k
// nodes closest to the group key (plus the local store), at most one
// republish per group in flight (the lookup inside can take several query
// timeouts; stacking republishes behind it would only waste messages). Only
// the group's rendezvous stores; the record carries the succession epoch so
// replicas' epoch guards reject a stale root's republish after a takeover.
// Store RPCs carry a fresh correlation ID but no call — the acks matter
// only as liveness traffic for the receivers' routing tables.
func (n *Node) dhtRepublishAsync(groupID string) {
	d := n.dht
	if d == nil || d.storing[groupID] {
		return
	}
	gs := n.groups[groupID]
	if gs == nil || !gs.rendezvous {
		return
	}
	rec := dht.Record{
		GroupID:    groupID,
		Rendezvous: n.self,
		Mode:       gs.mode,
		Epoch:      gs.epoch,
		Charter:    n.charterFor(groupID, gs),
	}
	key := dht.KeyID(groupID)
	d.store.Put(key, rec, n.now)
	d.storing[groupID] = true
	n.dhtLookup(key, "", func(res dht.Result) {
		delete(d.storing, groupID)
		n.dhtSendRecord(rec, res.Closest)
		atomic.AddUint64(&n.stats.DhtStores, 1)
	})
}

// dhtNoteChurn feeds observed churn events (bucket evictions, neighbour
// removals, record expiries) into the sliding-window estimator that drives
// adaptive maintenance pacing.
func (n *Node) dhtNoteChurn(events int) {
	if d := n.dht; d != nil {
		d.churn.Note(events, n.now)
	}
}

// DhtChurnRate returns the observed churn rate in events per second over
// the estimator's sliding window (0 when the DHT is disabled).
func (n *Node) DhtChurnRate() (rate float64) {
	if d := n.dht; d != nil {
		n.post(func() { rate = d.churn.Rate(n.now) })
	}
	return rate
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

// dhtPeriod returns the current period of a maintenance duty whose fixed
// cadence is base epochs: the observed churn rate maps between a relaxed
// cadence (2×) when calm and a tight one (¼) under storm — bounding
// record-loss probability under churn without paying storm-level
// maintenance traffic in a quiet overlay.
func (n *Node) dhtPeriod(base int) time.Duration {
	hb := n.cfg.HeartbeatInterval
	perEpoch := n.dht.churn.Rate(n.now) * hb.Seconds()
	epochs := dht.AdaptiveEpochs(perEpoch, DefaultDHTChurnCalm, DefaultDHTChurnStorm, 2*base, base/4)
	return time.Duration(epochs) * hb
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
		if d.storing[rec.GroupID] {
			continue
		}
		atomic.AddUint64(&n.stats.DhtRescues, 1)
		if rec.Rendezvous.Addr == n.self.Addr {
			n.dhtRepublishAsync(rec.GroupID)
		} else {
			// No iterative lookup for a remote owner's record: a rescue
			// costs at most k messages.
			n.dhtSendRecord(rec, closest)
		}
	}
}

// dhtSendRecord pushes one charter record to each of the given contacts.
func (n *Node) dhtSendRecord(rec dht.Record, to []dht.Contact) {
	msg := wire.Message{
		Type:       wire.TDhtStore,
		From:       n.self,
		GroupID:    rec.GroupID,
		Rendezvous: rec.Rendezvous,
		Mode:       rec.Mode,
		Epoch:      rec.Epoch,
		Charter:    rec.Charter,
	}
	for _, c := range to {
		m := msg
		m.ReqID = n.nextMsgID()
		_ = n.send(c.Info.Addr, m)
	}
}

// dhtEpoch is the discovery plane's share of one heartbeat epoch: fold the
// live neighbour set into the routing table (bucket maintenance piggybacks
// on the beacons the node already runs) and expire dead records.
func (n *Node) dhtEpoch() {
	d := n.dht
	if d == nil {
		return
	}
	for _, addr := range sortedKeys(n.neighbors) {
		if nb := n.neighbors[addr]; !nb.suspect {
			n.dhtObserve(nb.info)
		}
	}
	if swept := d.store.Sweep(n.now); swept > 0 {
		n.dhtNoteChurn(swept)
	}
}

// dhtDuties arms the discovery plane's periodic upkeep (heartbeats on): a
// rendezvous republishes the charters it roots, and a self-lookup keeps the
// routing table's near buckets fresh. The first rounds come
// dhtRepublishEpochs and dhtRefreshEpochs heartbeats after the start; each
// round re-arms on the churn-adapted period (see dhtPeriod).
func (n *Node) dhtDuties() {
	if n.dht == nil {
		return
	}
	var republish, refresh func()
	republish = func() {
		for _, gid := range n.groupIDs() {
			n.dhtRepublishAsync(gid) // a no-op unless this node roots gid
		}
		n.duty(n.dhtPeriod(dhtRepublishEpochs), republish)
	}
	refresh = func() {
		n.dhtLookup(n.dht.id, "", func(dht.Result) {})
		n.duty(n.dhtPeriod(dhtRefreshEpochs), refresh)
	}
	n.duty(dhtRepublishEpochs*n.cfg.HeartbeatInterval, republish)
	n.duty(dhtRefreshEpochs*n.cfg.HeartbeatInterval, refresh)
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
		From:      n.self,
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
		From:    n.self,
		ReqID:   msg.ReqID,
		GroupID: msg.GroupID,
	}
	if rec, ok := d.store.Get(key, n.now); ok {
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
	d.store.Put(key, dht.Record{
		GroupID:    msg.GroupID,
		Rendezvous: msg.Rendezvous,
		Mode:       msg.Mode,
		Epoch:      msg.Epoch,
		Charter:    msg.Charter,
	}, n.now)
	held, _ := d.store.Get(key, n.now)
	_ = n.send(msg.From.Addr, wire.Message{
		Type:    wire.TDhtStoreAck,
		From:    n.self,
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
}

// DhtRecordView is one replicated charter record in a DhtView.
type DhtRecordView struct {
	Group      string `json:"group"`
	Rendezvous string `json:"rendezvous"`
	Epoch      uint64 `json:"epoch"`
}

// DhtView snapshots the discovery plane's state.
func (n *Node) DhtView() (v DhtView) {
	d := n.dht
	if d == nil {
		return v
	}
	n.post(func() {
		v = DhtView{
			Enabled:   true,
			ID:        d.id.String(),
			TableSize: d.table.Len(),
			Buckets:   d.table.BucketSizes(),
		}
		for _, r := range d.store.Snapshot() {
			v.Groups = append(v.Groups, DhtRecordView{
				Group: r.GroupID, Rendezvous: r.Rendezvous.Addr, Epoch: r.Epoch,
			})
		}
		v.Records = len(v.Groups)
	})
	return v
}
