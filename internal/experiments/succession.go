package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"groupcast/internal/core"
	"groupcast/internal/overlay"
	"groupcast/internal/protocol"
)

// SuccessionConfig parameterizes the rendezvous-succession experiment
// (-exp succession): for each deputy-roster size k it builds groups, kills
// the rendezvous (optionally together with some of its deputies), and
// measures time-to-recover, delivery retained, and the control overhead the
// charter replication costs.
type SuccessionConfig struct {
	// NumPeers is the overlay population.
	NumPeers int
	// Groups is how many independent groups are measured per roster size.
	Groups int
	// SubscriberFraction of the population subscribes to each group.
	SubscriberFraction float64
	// RosterSizes are the deputy counts compared (0 = succession disabled).
	RosterSizes []int
	// DeputyFailureProb is the probability each deputy died in the same
	// incident as the root (correlated failure — the stagger's reason to
	// exist).
	DeputyFailureProb float64
	// SuspectEpochs is the shared suspicion threshold: deputy #i recovers
	// the group after SuspectEpochs+i silent epochs.
	SuspectEpochs int
	// Seed drives every random stream (each (k, group) cell derives its own).
	Seed int64
	// Workers bounds the fan-out; 0 means DefaultWorkers(), 1 runs serial.
	// Output is byte-identical at any worker count.
	Workers int
}

// DefaultSuccessionConfig is the configuration -exp succession runs.
func DefaultSuccessionConfig(seed int64, workers int) SuccessionConfig {
	return SuccessionConfig{
		NumPeers:           600,
		Groups:             8,
		SubscriberFraction: 0.15,
		RosterSizes:        []int{0, 1, 2, 3},
		DeputyFailureProb:  0.3,
		SuspectEpochs:      3,
		Seed:               seed,
		Workers:            workers,
	}
}

// successionOutcome is the measurement of one (k, group) cell.
type successionOutcome struct {
	membersBefore int
	// recovered is false when no live deputy existed (k = 0, a childless
	// root, or every deputy died with it): the group is simply lost.
	recovered bool
	// ttrEpochs is the silent-epoch count before the winning deputy fired
	// (SuspectEpochs + its roster index).
	ttrEpochs int
	// membersDelivered is how many surviving members end up on the
	// re-rooted tree (the recovered delivery population).
	membersDelivered int
	// survivors is the members alive after the incident (everything except
	// the root and the deputies that died with it).
	survivors int
	// joinMessages is the re-attachment traffic: one join per orphan subtree
	// absorbed through the charter, plus one per member stranded under a
	// dead deputy (those fall back to search-based rejoins).
	joinMessages int
	// charterMsgsPerEpoch is the steady-state replication overhead the roster
	// cost while the root was alive.
	charterMsgsPerEpoch int
	// advertMessages is the promoted root's re-advertisement flood.
	advertMessages int
	// healSideB / healRejoins measure the partition-heal reconciliation on
	// the same tree (k > 0 with a live deputy only): the successor's side
	// keeps healSideB members through the split, and the losing root
	// re-attaches its intact side with healRejoins join messages.
	healSideB   int
	healRejoins int
}

// RunSuccession runs the succession experiment and prints two tables: the
// roster-size sweep (TTR, delivery, overhead) and the partition-heal
// reconciliation summary.
func RunSuccession(w io.Writer, seed int64, workers int) error {
	return RunSuccessionConfig(w, DefaultSuccessionConfig(seed, workers))
}

// RunSuccessionConfig is RunSuccession with an explicit configuration.
func RunSuccessionConfig(w io.Writer, cfg SuccessionConfig) error {
	pcfg := DefaultPipelineConfig(cfg.NumPeers, cfg.Seed)
	pcfg.UseCoordinates = false
	p, err := BuildPipeline(pcfg)
	if err != nil {
		return err
	}
	g, levels, _, err := p.GroupCastOverlay(cfg.Seed)
	if err != nil {
		return err
	}
	alive := g.AlivePeers()

	groups := cfg.Groups
	if groups < 1 {
		groups = 1
	}
	ks := cfg.RosterSizes
	if len(ks) == 0 {
		ks = []int{0, 1, 2, 3}
	}
	outs, err := mapOrdered(cfg.Workers, len(ks)*groups, func(t int) (successionOutcome, error) {
		ki, gi := t/groups, t%groups
		rng := rand.New(rand.NewSource(cellSeed(cfg.Seed, int64(ki), int64(gi))))
		return p.successionCell(g, alive, levels, ks[ki], cfg, rng)
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# succession: rendezvous crash recovery vs deputy roster size k")
	fmt.Fprintf(w, "# N=%d groups=%d frac=%.2f deputy-failure=%.2f suspect=%d seed=%d\n",
		cfg.NumPeers, groups, cfg.SubscriberFraction, cfg.DeputyFailureProb, cfg.SuspectEpochs, cfg.Seed)
	fmt.Fprintln(w, "# ttr = silent epochs before the first live deputy fires (suspect + roster index);")
	fmt.Fprintln(w, "# delivery = members on the re-rooted tree / members that survived the incident;")
	fmt.Fprintln(w, "# charter/ep = replication messages per beacon epoch while the root lived")
	fmt.Fprintf(w, "%-3s %-10s %-10s %-10s %-10s %-11s %-10s\n",
		"k", "recovered", "ttr ep", "delivery", "joins", "charter/ep", "advert msgs")
	for ki, k := range ks {
		cells := outs[ki*groups : (ki+1)*groups]
		var rec, ttrSum, joinSum, charterSum, advertSum int
		var deliverSum float64
		for _, c := range cells {
			charterSum += c.charterMsgsPerEpoch
			if !c.recovered {
				continue
			}
			rec++
			ttrSum += c.ttrEpochs
			joinSum += c.joinMessages
			advertSum += c.advertMessages
			if c.survivors > 0 {
				deliverSum += float64(c.membersDelivered) / float64(c.survivors)
			}
		}
		ttr, delivery, joins, adverts := "-", "-", "-", "-"
		if rec > 0 {
			ttr = fmt.Sprintf("%.2f", float64(ttrSum)/float64(rec))
			delivery = fmt.Sprintf("%.3f", deliverSum/float64(rec))
			joins = fmt.Sprintf("%.1f", float64(joinSum)/float64(rec))
			adverts = fmt.Sprintf("%.0f", float64(advertSum)/float64(rec))
		}
		fmt.Fprintf(w, "%-3d %-10s %-10s %-10s %-10s %-11.1f %-10s\n",
			k, fmt.Sprintf("%d/%d", rec, len(cells)), ttr, delivery, joins,
			float64(charterSum)/float64(len(cells)), adverts)
	}

	fmt.Fprintln(w, "# succession: partition-heal reconciliation (groups recovered above, largest k)")
	fmt.Fprintln(w, "# the successor (epoch 2) always outranks the stranded root (epoch 1):")
	fmt.Fprintln(w, "# one demotion, one re-join of the losing side's intact subtree")
	fmt.Fprintf(w, "%-3s %-8s %-12s %-10s %-10s %-10s\n",
		"k", "heals", "epoch wins", "demotions", "side-b", "rejoins")
	for ki, k := range ks {
		if k == 0 {
			continue
		}
		cells := outs[ki*groups : (ki+1)*groups]
		var heals, sideB, rejoins int
		for _, c := range cells {
			if !c.recovered {
				continue
			}
			heals++
			sideB += c.healSideB
			rejoins += c.healRejoins
		}
		if heals == 0 {
			fmt.Fprintf(w, "%-3d %-8d %-12s %-10s %-10s %-10s\n", k, 0, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-3d %-8d %-12s %-10d %-10.1f %-10.1f\n",
			k, heals, "100%", 1, float64(sideB)/float64(heals), float64(rejoins)/float64(heals))
	}
	return nil
}

// successionCell builds one group, ranks the root's children into a deputy
// roster of size k by Eq. 6 preference, crash-stops the root (each deputy
// dying with it with DeputyFailureProb), and replays the pure succession
// rules: the first live deputy fires after SuspectEpochs + index silent
// epochs and re-roots the tree; members stranded under dead deputies fall
// back to search-based rejoins.
func (p *Pipeline) successionCell(g *overlay.Graph, alive []int, levels protocol.ResourceLevels,
	k int, cfg SuccessionConfig, rng *rand.Rand) (successionOutcome, error) {
	var out successionOutcome
	acfg := protocol.DefaultAdvertiseConfig()
	scfg := protocol.DefaultSubscribeConfig()
	nSubs := int(cfg.SubscriberFraction * float64(cfg.NumPeers))
	if nSubs < 2 {
		nSubs = 2
	}
	rendezvous := alive[rng.Intn(len(alive))]
	subs := make([]int, 0, nSubs)
	for _, idx := range rng.Perm(len(alive)) {
		if len(subs) >= nSubs {
			break
		}
		if alive[idx] != rendezvous {
			subs = append(subs, alive[idx])
		}
	}
	tree, _, _, err := protocol.BuildGroup(g, rendezvous, subs, levels, acfg, scfg, rng, nil)
	if err != nil {
		return out, err
	}
	out.membersBefore = tree.NumMembers()

	// The root's children ranked by the live charter builder's roster rule.
	uni := g.Universe()
	kids := append([]int(nil), tree.Children[rendezvous]...)
	sort.Ints(kids)
	cands := make([]core.Candidate, len(kids))
	ids := make([]string, len(kids))
	for i, c := range kids {
		cands[i] = core.Candidate{
			Capacity: float64(uni.Caps[c]),
			Distance: uni.Dist(rendezvous, c),
		}
		ids[i] = fmt.Sprintf("%06d", c)
	}
	roster := protocol.DeputyRoster(levels(rendezvous), cands, ids, k)
	out.charterMsgsPerEpoch = len(roster)

	// The incident: the root dies; each deputy dies with it independently.
	deputies := make([]int, len(roster))
	deadDeputy := make(map[int]bool)
	for i, idx := range roster {
		deputies[i] = kids[idx]
		if rng.Float64() < cfg.DeputyFailureProb {
			deadDeputy[kids[idx]] = true
		}
	}
	winner := -1
	for i, d := range deputies {
		if !deadDeputy[d] {
			winner = i
			break
		}
	}
	if winner < 0 {
		return out, nil // k = 0 or every deputy died: the group is lost
	}

	out.recovered = true
	out.ttrEpochs = protocol.SuccessionDelayEpochs(cfg.SuspectEpochs, winner)
	// A deputy may be a pure forwarder; promotion makes it a member, which
	// must not count as a delivered *survivor* (it was never subscribed).
	winnerWasMember := tree.Members[deputies[winner]]
	// Side B of the heal scenario is the successor's own subtree — the
	// members that stayed with it through the split. Snapshot it before the
	// re-rooting folds the whole tree under the successor.
	for _, n := range subtreeOf(tree, deputies[winner]) {
		if tree.Members[n] {
			out.healSideB++
		}
	}
	promoted, ok := protocol.PromoteDeputy(tree, deputies[winner])
	if !ok {
		return out, fmt.Errorf("experiments: deputy %d is not a root child", deputies[winner])
	}
	out.joinMessages = promoted.JoinMessages

	// Members stranded under deputies that died with the root lose their
	// subtree root and rejoin one by one via search.
	dead := 1 // the root
	for d := range deadDeputy {
		sub := subtreeOf(tree, d)
		for _, n := range sub {
			if n != d && tree.Members[n] {
				out.joinMessages++
			}
		}
		if tree.Members[d] {
			dead++
		}
	}
	out.survivors = out.membersBefore - dead
	out.membersDelivered = promoted.MembersRetained
	if !winnerWasMember {
		out.membersDelivered--
	}
	for d := range deadDeputy {
		if tree.Members[d] {
			out.membersDelivered--
		}
	}

	// The promoted root re-advertises so orphans and late joiners find the
	// new reverse paths.
	adv, err := protocol.Advertise(g, deputies[winner], levels, acfg, rng, nil)
	if err != nil {
		return out, err
	}
	out.advertMessages = adv.Messages

	// Partition-heal reconciliation on the same group: the winner's subtree
	// is the side that kept publishing under the successor (epoch 2); on heal
	// the stranded root (epoch 1) loses the CompareRoots race, demotes, and
	// re-joins its intact side with a single join.
	if protocol.CompareRoots(protocol.NextRootEpoch(1), fmt.Sprintf("%06d", deputies[winner]),
		1, fmt.Sprintf("%06d", rendezvous)) <= 0 {
		return out, fmt.Errorf("experiments: epoch comparison failed to pick the successor")
	}
	out.healRejoins = 1
	return out, nil
}

// subtreeOf lists root's subtree nodes (root included).
func subtreeOf(t *protocol.Tree, root int) []int {
	out := []int{root}
	for i := 0; i < len(out); i++ {
		out = append(out, t.Children[out[i]]...)
	}
	return out
}
