package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"groupcast/internal/dht"
	"groupcast/internal/invariant"
	"groupcast/internal/node"
	"groupcast/internal/wire"
)

// This experiment is the churn-survival study: a discrete-epoch simulation
// of a DHT-discovered group population under a seeded Poisson crash–restart
// process, comparing maintenance pacing (churn-adaptive vs fixed republish
// cadence) and crash–restart recovery (state file on vs off, the live
// node's StatePath plane) across churn tiers. Reported per cell: charter
// record availability under lookup probes, payload delivery ratio, the
// restarted node's rejoin cost in messages and epochs, the maintenance
// spend, and the invariant checker's verdict — the same oracle the live
// chaos soak uses, so a modelling bug that breaks FIFO or splits a root
// fails the table, not just the cluster.

// ChurnRow is one cell of the churn study.
type ChurnRow struct {
	N int
	// Rate is the Poisson crash intensity in expected crashes per epoch
	// across the whole fleet.
	Rate float64
	// Adaptive selects churn-adaptive maintenance pacing (with eviction
	// rescue); false is the fixed republish cadence.
	Adaptive bool
	// Recovery selects crash–restart recovery: restarted nodes rejoin from
	// their persisted routing snapshot and recover missed payloads within
	// the reliable window; without it they rejoin amnesiac.
	Recovery bool
	// Restarts counts crash–revive cycles simulated in the cell.
	Restarts int
	// Avail is the fraction of per-epoch lookup probes that found the
	// group's charter record.
	Avail float64
	// Delivery is the fraction of published payloads that reached each
	// subscriber (down-time misses recovered only with Recovery).
	Delivery float64
	// RejoinMsgs/RejoinTTR are the mean per-restart rejoin cost: lookup +
	// bootstrap messages, and epochs until re-attached.
	RejoinMsgs float64
	RejoinTTR  float64
	// MaintMsgs is the maintenance spend in messages per epoch (republish
	// pushes and rescue re-replications).
	MaintMsgs float64
	// Violations is the invariant checker's total finding count (root
	// uniqueness, FIFO across restarts, bounded replication). Zero on a
	// correct run.
	Violations int
}

// Simulation shape. One epoch is the live heartbeat epoch; the cadences
// mirror the live defaults (fixed republish every churnRepublish epochs,
// record TTL slightly longer, adaptive pacing between 2× and ¼ of the fixed
// cadence exactly as Node.dhtPeriod does).
const (
	churnNodes     = 192
	churnGroups    = 12
	churnEpochs    = 240
	churnDowntime  = 8  // epochs a crashed node stays down
	churnRepublish = 24 // fixed republish cadence (epochs)
	// churnRecordTTL mirrors the live ratio (TTL well beyond even the
	// relaxed adaptive cadence of 2× the configured epochs): expiry is the
	// orphan sweeper, not the availability mechanism.
	churnRecordTTL = 60
	churnSubs      = 6  // subscribers sampled per group
	churnProbes    = 4  // availability lookups per epoch
	churnBootstrap = 8  // bootstrap contacts an amnesiac restart probes
	churnWindow    = 64 // reliable recovery window (epochs of missed traffic)
)

// poisson draws a Poisson variate (Knuth's product method; the study's
// rates are small, so the loop is short).
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ChurnStudy runs the churn-survival grid: every crash rate × {adaptive,
// fixed} pacing × {recovery, amnesiac} restart cell. Cells fan out across
// workers with grid-seeded RNGs, so output is identical at any worker
// count.
func ChurnStudy(rates []float64, seed int64, workers int) ([]ChurnRow, error) {
	type policy struct{ adaptive, recovery bool }
	policies := []policy{{true, true}, {true, false}, {false, true}, {false, false}}
	return mapOrdered(workers, len(rates)*len(policies), func(cell int) (ChurnRow, error) {
		ri, pi := cell/len(policies), cell%len(policies)
		pol := policies[pi]
		row := ChurnRow{N: churnNodes, Rate: rates[ri], Adaptive: pol.adaptive, Recovery: pol.recovery}
		rng := rand.New(rand.NewSource(cellSeed(seed, 113, int64(ri), int64(pi))))
		check := invariant.New()

		// Population: full DHT tables over a shared rotated permutation, as
		// in the discovery study.
		addrs := make([]string, churnNodes)
		ids := make([]dht.ID, churnNodes)
		contacts := make([]dht.Contact, churnNodes)
		idxOf := make(map[string]int, churnNodes)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("n%d", i)
			ids[i] = dht.NodeID(addrs[i])
			contacts[i] = dht.Contact{ID: ids[i], Info: wire.PeerInfo{Addr: addrs[i]}}
			idxOf[addrs[i]] = i
		}
		tables := make([]*dht.Table, churnNodes)
		perm := rng.Perm(churnNodes)
		for i := range tables {
			tables[i] = dht.NewTable(ids[i], dht.DefaultK)
			for j := 0; j < churnNodes; j++ {
				if o := perm[(i+j)%churnNodes]; o != i {
					tables[i].Observe(contacts[o])
				}
			}
		}

		// Groups: an owner, a subscriber sample, and a holder set (node →
		// record-expiry epoch) seeded at the k closest.
		type groupSim struct {
			name    string
			key     dht.ID
			owner   int
			subs    []int
			holders map[int]int
		}
		upAt := make([]int, churnNodes) // next epoch the node is up (0 = up now)
		alive := func(i, epoch int) bool { return upAt[i] <= epoch }
		closestAlive := func(key dht.ID, epoch int) []int {
			// Selection via partial sort over the alive population (N is
			// small enough that O(N·k) per call is fine).
			idxs := make([]int, 0, dht.DefaultK)
			all := make([]int, 0, churnNodes)
			for i := 0; i < churnNodes; i++ {
				if alive(i, epoch) {
					all = append(all, i)
				}
			}
			for len(idxs) < dht.DefaultK && len(all) > 0 {
				bi := 0
				for j := 1; j < len(all); j++ {
					if dht.Closer(key, ids[all[j]], ids[all[bi]]) {
						bi = j
					}
				}
				idxs = append(idxs, all[bi])
				all = append(all[:bi], all[bi+1:]...)
			}
			return idxs
		}
		groupsOf := make([][]int, churnNodes) // node → groups it subscribes to
		sims := make([]*groupSim, churnGroups)
		for gi := range sims {
			gs := &groupSim{
				name:    fmt.Sprintf("group-%d", gi),
				owner:   rng.Intn(churnNodes),
				holders: make(map[int]int),
			}
			gs.key = dht.KeyID(gs.name)
			for len(gs.subs) < churnSubs {
				s := rng.Intn(churnNodes)
				if s == gs.owner {
					continue
				}
				dup := false
				for _, have := range gs.subs {
					if have == s {
						dup = true
					}
				}
				if !dup {
					gs.subs = append(gs.subs, s)
					groupsOf[s] = append(groupsOf[s], gi)
				}
			}
			for _, h := range closestAlive(gs.key, 0) {
				gs.holders[h] = churnRecordTTL
			}
			sims[gi] = gs
		}

		republish := func(gs *groupSim, epoch int) {
			for _, h := range closestAlive(gs.key, epoch) {
				gs.holders[h] = epoch + churnRecordTTL
			}
			row.MaintMsgs += dht.DefaultK
			check.ObserveRoot(gs.name, 1, addrs[gs.owner])
		}

		// The adaptive cadence rides the same estimator and mapping the live
		// node uses (one simulated epoch ≈ one estimator second).
		est := dht.NewChurnEstimator(16 * time.Second)
		t0 := time.Unix(0, 0)
		cadence := func(epoch int) int {
			if !pol.adaptive {
				return churnRepublish
			}
			return dht.AdaptiveEpochs(est.Rate(t0.Add(time.Duration(epoch)*time.Second)),
				node.DefaultDHTChurnCalm, node.DefaultDHTChurnStorm,
				2*churnRepublish, churnRepublish/4)
		}

		// subHigh tracks each subscriber's delivered high-water mark per
		// group; on a recovery-on revive the gap back to it (within the
		// reliable window) is recovered via digest anti-entropy.
		type subKey struct{ sub, group int }
		subHigh := make(map[subKey]int)
		deliver := func(sub, gi, seq int) {
			gs := sims[gi]
			check.ObserveDelivery(addrs[sub], gs.name, addrs[gs.owner], uint64(seq))
			subHigh[subKey{sub, gi}] = seq
			row.Delivery++
		}

		var published, probes, hits float64
		nextRepub := make([]int, churnGroups) // per-group next republish epoch
		for gi := range nextRepub {
			nextRepub[gi] = cadence(0)
		}
		lastEpoch := make(map[int]int) // node → epoch of its pending revive
		for epoch := 0; epoch < churnEpochs; epoch++ {
			now := t0.Add(time.Duration(epoch) * time.Second)

			// Revivals due this epoch: rejoin, with or without the state
			// file. (Indexed scan, not map range — rng draws must happen in
			// a deterministic order.)
			for i := 0; i < churnNodes; i++ {
				if at, down := lastEpoch[i]; !down || at != epoch {
					continue
				}
				delete(lastEpoch, i)
				row.Restarts++
				target := sims[rng.Intn(churnGroups)]
				if len(groupsOf[i]) > 0 {
					target = sims[groupsOf[i][rng.Intn(len(groupsOf[i]))]]
				}
				var seeds []dht.Contact
				ttr := 0.0
				if pol.recovery {
					// Restored routing snapshot: resolve straight from the
					// persisted k closest.
					seeds = tables[i].Closest(target.key, dht.DefaultK)
				} else {
					// Amnesiac: probe bootstrap contacts first, then resolve
					// from whatever they are.
					row.RejoinMsgs += 2 * churnBootstrap
					ttr++
					for len(seeds) < churnBootstrap {
						seeds = append(seeds, contacts[rng.Intn(churnNodes)])
					}
				}
				res := dht.Lookup(target.key, seeds, dht.DefaultK, dht.DefaultAlpha,
					func(c dht.Contact, key dht.ID) ([]dht.Contact, *dht.Record, error) {
						o := idxOf[c.Info.Addr]
						if !alive(o, epoch) {
							return nil, nil, fmt.Errorf("down")
						}
						if exp, held := target.holders[o]; held && exp > epoch {
							return nil, &dht.Record{GroupID: target.name, Epoch: 1,
								Rendezvous: contacts[target.owner].Info}, nil
						}
						return tables[o].Closest(key, dht.DefaultK), nil, nil
					})
				row.RejoinMsgs += 2 * float64(res.Queries)
				row.RejoinTTR += ttr + float64(res.Hops)
				// A recovered rendezvous republishes its records immediately
				// (RecoverGroups); an amnesiac one waits for the cadence.
				if pol.recovery {
					for gi, gs := range sims {
						if gs.owner == i {
							republish(gs, epoch)
							nextRepub[gi] = epoch + cadence(epoch)
						}
					}
					// Recover missed payloads within the reliable window, in
					// order — the seeded window resumes, it never resyncs.
					for _, gi := range groupsOf[i] {
						gs := sims[gi]
						high := subHigh[subKey{i, gi}]
						from := epoch - churnWindow
						if from <= high {
							from = high + 1
						}
						for s := from; s < epoch; s++ {
							if alive(gs.owner, s) {
								deliver(i, gi, s)
							}
						}
					}
				}
			}

			// Poisson crashes.
			for c := poisson(rng, rates[ri]); c > 0; c-- {
				up := make([]int, 0, churnNodes)
				for i := 0; i < churnNodes; i++ {
					if alive(i, epoch) && lastEpoch[i] == 0 {
						up = append(up, i)
					}
				}
				if len(up) == 0 {
					break
				}
				victim := up[rng.Intn(len(up))]
				upAt[victim] = epoch + churnDowntime
				lastEpoch[victim] = epoch + churnDowntime
				est.Note(1, now)
				for _, gs := range sims {
					if _, held := gs.holders[victim]; !held {
						continue
					}
					delete(gs.holders, victim) // the store dies with the node
					if pol.adaptive {
						// Eviction rescue: surviving holders re-replicate as
						// soon as the loss is observed.
						republish(gs, epoch)
					}
				}
			}

			// Maintenance ticks.
			for gi, gs := range sims {
				if epoch < nextRepub[gi] {
					continue
				}
				nextRepub[gi] = epoch + cadence(epoch)
				if alive(gs.owner, epoch) {
					republish(gs, epoch)
				}
			}

			// Publish + live delivery.
			for gi, gs := range sims {
				if !alive(gs.owner, epoch) {
					continue
				}
				published += float64(len(gs.subs))
				for _, s := range gs.subs {
					if alive(s, epoch) {
						deliver(s, gi, epoch)
					}
				}
			}

			// Availability probes from random alive queriers.
			for p := 0; p < churnProbes; p++ {
				q := rng.Intn(churnNodes)
				if !alive(q, epoch) {
					continue
				}
				gs := sims[rng.Intn(churnGroups)]
				probes++
				res := dht.Lookup(gs.key, tables[q].Closest(gs.key, dht.DefaultK),
					dht.DefaultK, dht.DefaultAlpha,
					func(c dht.Contact, key dht.ID) ([]dht.Contact, *dht.Record, error) {
						o := idxOf[c.Info.Addr]
						if !alive(o, epoch) {
							return nil, nil, fmt.Errorf("down")
						}
						if exp, held := gs.holders[o]; held && exp > epoch {
							return nil, &dht.Record{GroupID: gs.name, Epoch: 1,
								Rendezvous: contacts[gs.owner].Info}, nil
						}
						return tables[o].Closest(key, dht.DefaultK), nil, nil
					})
				if res.Record != nil {
					hits++
				}
			}

			// Bounded-replication invariant: rescue and republish must never
			// grow a holder set past k live replicas plus the crashed-and-
			// expiring stragglers inside one TTL.
			for _, gs := range sims {
				fresh := 0
				for _, exp := range gs.holders {
					if exp > epoch {
						fresh++
					}
				}
				check.ObserveBound(gs.name, "fresh-holders", fresh, 2*dht.DefaultK)
			}
		}

		if probes > 0 {
			row.Avail = hits / probes
		}
		if published > 0 {
			row.Delivery /= published
		}
		if row.Restarts > 0 {
			row.RejoinMsgs /= float64(row.Restarts)
			row.RejoinTTR /= float64(row.Restarts)
		}
		row.MaintMsgs /= churnEpochs
		row.Violations = check.Count()
		return row, nil
	})
}

// churnRates is the study's churn grid: expected crashes per epoch across
// the fleet, from calm through the storm tier the adaptive pacing exists
// for.
func churnRates() []float64 { return []float64{0.05, 0.5, 8.0} }

// RunChurn writes the churn-survival study.
func RunChurn(w io.Writer, seed int64, workers int) error {
	rows, err := ChurnStudy(churnRates(), seed, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Churn survival: Poisson crash-restart process, maintenance pacing x restart recovery")
	fmt.Fprintf(w, "%-6s %-7s %-9s %-9s %-9s %-9s %-11s %-8s %-11s %-6s\n",
		"rate", "pacing", "recovery", "restarts", "avail", "delivery", "rejoin-msgs", "ttr-ep", "maint/ep", "viol")
	for _, r := range rows {
		pacing := "fixed"
		if r.Adaptive {
			pacing = "adaptive"
		}
		rec := "off"
		if r.Recovery {
			rec = "on"
		}
		fmt.Fprintf(w, "%-6.2f %-7s %-9s %-9d %-9.4f %-9.4f %-11.1f %-8.2f %-11.1f %-6d\n",
			r.Rate, pacing, rec, r.Restarts, r.Avail, r.Delivery,
			r.RejoinMsgs, r.RejoinTTR, r.MaintMsgs, r.Violations)
	}
	return nil
}
