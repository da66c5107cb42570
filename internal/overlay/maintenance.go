package overlay

import "math/rand"

// Maintenance message counters.
const (
	CtrHeartbeat     = "overlay.heartbeat"
	CtrHeartbeatResp = "overlay.heartbeat_resp"
	CtrRepairLink    = "overlay.repair_link"
)

// MaintenanceConfig tunes the epoch-based neighbourhood maintenance of
// Section 3.3 ("Neighborhood Link Maintenance").
type MaintenanceConfig struct {
	// MissedHeartbeatsToFail is how many consecutive unanswered heartbeats
	// mark a neighbour dead (the paper uses 2).
	MissedHeartbeatsToFail int
	// MinDegree is the neighbour count below which a peer repairs its list
	// at the end of an epoch.
	MinDegree int
}

// DefaultMaintenanceConfig mirrors the paper's two-missed-heartbeats rule.
func DefaultMaintenanceConfig() MaintenanceConfig {
	return MaintenanceConfig{MissedHeartbeatsToFail: 2, MinDegree: 3}
}

// EpochController implements the paper's adaptive epoch duration ("the epoch
// duration is dynamically adjusted depending upon the network churn so that
// overall overlay network can agilely adapt to current churn pattern"; the
// adjustment rule itself is unspecified, so we use multiplicative
// increase/decrease driven by the repairs-per-epoch signal).
type EpochController struct {
	// Min and Max bound the epoch duration in milliseconds.
	Min float64
	Max float64
	// TargetRepairs is the per-epoch repair count the controller steers to.
	TargetRepairs float64
	// current epoch duration in ms.
	current float64
}

// NewEpochController returns a controller starting at startMillis within
// [minMillis, maxMillis].
func NewEpochController(startMillis, minMillis, maxMillis, targetRepairs float64) *EpochController {
	if minMillis <= 0 {
		minMillis = 1000
	}
	if maxMillis < minMillis {
		maxMillis = minMillis * 16
	}
	if startMillis < minMillis {
		startMillis = minMillis
	}
	if startMillis > maxMillis {
		startMillis = maxMillis
	}
	if targetRepairs <= 0 {
		targetRepairs = 4
	}
	return &EpochController{
		Min:           minMillis,
		Max:           maxMillis,
		TargetRepairs: targetRepairs,
		current:       startMillis,
	}
}

// Duration returns the current epoch duration in milliseconds.
func (c *EpochController) Duration() float64 { return c.current }

// Observe folds one epoch's repair count into the controller and returns the
// next epoch duration: heavy churn (many repairs) halves the epoch so
// detection quickens; calm epochs stretch it 25% to save heartbeats.
func (c *EpochController) Observe(repairs int) float64 {
	switch {
	case float64(repairs) > c.TargetRepairs:
		c.current /= 2
	case float64(repairs) < c.TargetRepairs/2:
		c.current *= 1.25
	}
	if c.current < c.Min {
		c.current = c.Min
	}
	if c.current > c.Max {
		c.current = c.Max
	}
	return c.current
}

// RunEpoch performs one maintenance epoch over the whole overlay:
//
//  1. every alive peer heartbeats its neighbours (dead ones — peers removed
//     from the graph by churn — are detected and their edges pruned),
//  2. peers whose neighbour count dropped below cfg.MinDegree establish new
//     links, chosen by utility value exactly like during bootstrap ("New
//     peers are chosen according to their utility values. The process for
//     choosing new neighbors is similar to that of bootstrapping.").
//
// It returns how many repair links were created.
func (b *Builder) RunEpoch(cfg MaintenanceConfig, rng *rand.Rand) int {
	g := b.g
	// Phase 1: heartbeats. In the discrete simulation, churn removes peers
	// from the graph immediately, so edges to dead peers no longer exist;
	// heartbeats here only account for message cost.
	for _, i := range g.AlivePeers() {
		nbrs := g.Neighbors(i)
		b.ctr.Add(CtrHeartbeat, int64(len(nbrs)))
		b.ctr.Add(CtrHeartbeatResp, int64(len(nbrs)))
	}

	// Phase 2: repair under-connected peers.
	repaired := 0
	for _, i := range g.AlivePeers() {
		if g.Degree(i) >= cfg.MinDegree {
			continue
		}
		repaired += b.repair(i, cfg.MinDegree-g.Degree(i), rng)
	}
	return repaired
}

// repair gives peer i up to want new neighbours via a fresh bootstrap round.
func (b *Builder) repair(i, want int, rng *rand.Rand) int {
	if want <= 0 {
		return 0
	}
	g := b.g
	boots := b.hc.Bootstrap(i, b.cfg.HalfSizeMax, rng)
	chosen, err := b.choose(i, b.probe(i, boots), func(j int) bool {
		return !g.HasEdge(i, j) && !g.HasEdge(j, i) && g.Alive(j)
	}, want, rng)
	if err != nil {
		return 0
	}
	added := 0
	for _, k := range chosen {
		if err := g.AddEdge(i, k); err == nil {
			b.ctr.Inc(CtrRepairLink)
			b.backLink(i, k)
			added++
		}
	}
	return added
}
