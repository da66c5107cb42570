package node

import (
	"sync/atomic"
	"time"

	"groupcast/internal/dht"
	"groupcast/internal/recovery"
	"groupcast/internal/reliable"
	"groupcast/internal/wire"
)

// This file is the live half of crash–restart recovery (internal/recovery
// holds the durable state-file format): New reloads the state file when its
// identity matches the transport address, the heartbeat loop re-persists it
// every stateSaveEpochs, Close writes a final snapshot, and RecoverGroups
// rejoins the reloaded groups — members through the normal ad-path → DHT →
// ripple join with their receive windows pre-seeded from the persisted
// high-water marks, rendezvous groups by re-advertising and re-replicating
// their charter records (a deputy promoted while the node was down wins the
// epoch comparison and demotes us, exactly like a partition heal).

// stateSaveEpochs is how many heartbeat epochs pass between state-file
// saves.
const stateSaveEpochs = 5

// loadState reloads the recovery state during New. Any load error — missing
// file, corruption, wrong version — means a fresh start; a state file saved
// under a different address is somebody else's and is ignored (it will be
// overwritten at the next save).
func (n *Node) loadState() {
	if n.cfg.StatePath == "" {
		return
	}
	st, err := recovery.Load(n.cfg.StatePath)
	if err != nil || st.Addr != n.self.Addr {
		return
	}
	n.restoreState(st)
}

// restoreState applies a reloaded state: seed the DHT routing table from the
// contact snapshot, resume the epoch counters above the persisted value, and
// rebuild each group's membership state with its reliable windows seeded at
// the persisted high-water marks. Runs during New, before any loop starts.
// msgSeqRestartSlack is added to the persisted message-ID counter on
// restore, covering IDs consumed between the last save and the crash. A
// restart that reused a first-life message ID would have its searches and
// advertisement floods silently swallowed by peers' seen-ID dedup caches.
const msgSeqRestartSlack = 1 << 16

func (n *Node) restoreState(st *recovery.State) {
	n.recovered = st
	// The epoch count resumes above the persisted one, so the next save and
	// the final Close snapshot never persist a smaller epoch.
	n.epochNow.Store(int64(st.Epoch))
	n.msgSeq = st.MsgSeq + msgSeqRestartSlack
	if n.dht != nil {
		for _, c := range st.Contacts {
			if c.Addr == "" || c.Addr == n.self.Addr {
				continue
			}
			n.dht.table.Observe(dht.Contact{ID: dht.NodeID(c.Addr), Info: c})
		}
	}
	if ts := n.telemetry; ts != nil {
		// Health digests resume above the persisted epoch, so every fleet
		// view accepts the post-restart lineage without forgiveness.
		ts.epoch = st.Epoch
	}
	for _, g := range st.Groups {
		if g.GroupID == "" || n.groups[g.GroupID] != nil {
			continue
		}
		gs := newGroupState(g.Mode)
		gs.member = g.Member
		gs.rendezvous = g.Rendezvous
		gs.promoted = g.Promoted
		gs.epoch = g.Epoch
		gs.rdvInfo = g.RdvInfo
		gs.deputies = append([]wire.PeerInfo(nil), g.Deputies...)
		gs.charter = g.Charter
		if g.Rendezvous {
			gs.rdvInfo = n.self
			gs.rootPath = []string{}
			n.adSeen[g.GroupID] = adState{
				rendezvous: gs.rdvInfo, mode: g.Mode, epoch: g.Epoch,
			}
		}
		if g.PubHigh > 0 {
			// Resume FIFO numbering above the persisted publish high-water
			// mark — subscribers' windows treat a restart at sequence 1 as
			// ancient duplicates and drop the whole stream.
			gs.pub = reliable.NewSendBuffer(reliable.DefaultCachePayloads)
			gs.pub.Seed(g.PubHigh)
		}
		ordered := g.Mode == wire.ReliableOrdered
		reliableMode := g.Mode != wire.BestEffort
		for _, s := range g.Sources {
			if s.Source == "" || s.Source == n.self.Addr || s.High == 0 ||
				len(gs.recv) >= maxSourcesPerGroup {
				continue
			}
			w := reliable.NewSourceWindow(reliable.DefaultWindowSpan, reliable.DefaultCachePayloads,
				ordered, reliableMode)
			w.Seed(s.High)
			w.Info = wire.PeerInfo{Addr: s.Source}
			gs.recv[s.Source] = w
		}
		n.groups[g.GroupID] = gs
	}
	atomic.AddUint64(&n.stats.StateRestores, 1)
}

// RecoverGroups rejoins every group reloaded from the state file, after
// Start and Bootstrap: member groups re-attach through the normal join path
// (their seeded windows resume the FIFO streams; digest anti-entropy
// recovers anything published while the node was down), rendezvous groups
// re-advertise and re-replicate their charter record. Returns the first
// rejoin error; every group is still attempted. Nil when nothing was
// recovered.
func (n *Node) RecoverGroups(timeout time.Duration) error {
	st := n.recovered
	if st == nil {
		return nil
	}
	var firstErr error
	for _, g := range st.Groups {
		switch {
		case g.Rendezvous:
			var err error
			n.post(func() {
				if err = n.runnable(); err == nil {
					n.dhtRepublishAsync(g.GroupID)
					err = n.advertise(g.GroupID)
				}
			})
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case g.Member:
			if err := n.Join(g.GroupID, timeout); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// captureState snapshots the node into a durable recovery state, with the
// heartbeat epoch count so a restart resumes above it. It reads loop state:
// the loop's save duty calls it, and Close once the loop has stopped.
func (n *Node) captureState() *recovery.State {
	st := &recovery.State{
		Addr:     n.self.Addr,
		Coord:    append([]float64(nil), n.self.Coord...),
		Capacity: n.self.Capacity,
		Epoch:    uint64(n.epochNow.Load()),
		MsgSeq:   n.msgSeq,
		SavedAt:  n.now,
	}
	for _, gid := range n.groupIDs() {
		gs := n.groups[gid]
		g := recovery.GroupState{
			GroupID:    gid,
			Mode:       gs.mode,
			Epoch:      gs.epoch,
			Member:     gs.member,
			Rendezvous: gs.rendezvous,
			Promoted:   gs.promoted,
			RdvInfo:    gs.rdvInfo,
			Deputies:   append([]wire.PeerInfo(nil), gs.deputies...),
			Charter:    gs.charter,
		}
		if gs.pub != nil {
			g.PubHigh = gs.pub.High()
		}
		g.Sources = n.highWater(gs, false)
		st.Groups = append(st.Groups, g)
	}
	if n.dht != nil {
		for _, c := range n.dht.table.Contacts() {
			st.Contacts = append(st.Contacts, c.Info)
		}
	}
	return st
}

// saveState persists the recovery state file: the loop's save duty, and
// Close once the loop has stopped. A failed save is dropped — the previous
// file stays intact thanks to the atomic rename, and the next save retries.
func (n *Node) saveState() {
	if n.cfg.StatePath == "" {
		return
	}
	st := n.captureState()
	if err := recovery.Save(n.cfg.StatePath, st); err == nil {
		atomic.AddUint64(&n.stats.StateSaves, 1)
		n.lastSaveAt.Store(st.SavedAt.UnixNano())
	}
}

// RecoveryView is the crash–restart plane's introspection snapshot, served
// by /debug/recovery.
type RecoveryView struct {
	Enabled bool   `json:"enabled"`
	Path    string `json:"path,omitempty"`
	// Restored reports whether this process reloaded a matching state file;
	// RestoredEpoch and RestoredGroups describe what it carried.
	Restored       bool     `json:"restored"`
	RestoredEpoch  uint64   `json:"restored_epoch,omitempty"`
	RestoredGroups []string `json:"restored_groups,omitempty"`
	// LastSaveAt is the newest state-file write.
	LastSaveAt time.Time `json:"last_save_at,omitempty"`
	// ChurnRate is the DHT's observed churn estimate in events per second —
	// the signal the adaptive maintenance pacing keys off.
	ChurnRate float64 `json:"churn_rate"`
}

// RecoveryView snapshots the crash–restart plane.
func (n *Node) RecoveryView() RecoveryView {
	v := RecoveryView{
		Enabled:   n.cfg.StatePath != "",
		Path:      n.cfg.StatePath,
		ChurnRate: n.DhtChurnRate(),
	}
	if at := n.lastSaveAt.Load(); at != 0 {
		v.LastSaveAt = time.Unix(0, at)
	}
	if st := n.recovered; st != nil {
		v.Restored = true
		v.RestoredEpoch = st.Epoch
		for _, g := range st.Groups {
			v.RestoredGroups = append(v.RestoredGroups, g.GroupID)
		}
	}
	return v
}
