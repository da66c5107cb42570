package experiments

import (
	"fmt"
	"io"

	"groupcast/internal/metrics"
	"groupcast/internal/netsim"
	"groupcast/internal/overlay"
)

// DegreeDistributionResult carries a Figure 7/8 degree distribution with its
// fitted power-law slope.
type DegreeDistributionResult struct {
	Points    []metrics.DegreePoint
	Slope     float64
	Intercept float64
	FitOK     bool
	MaxDegree int
}

// DegreeDistribution computes the node-degree distribution of an overlay and
// fits a log-log line (the power-law check of Figures 7 and 8).
func DegreeDistribution(g *overlay.Graph) DegreeDistributionResult {
	degrees := g.Degrees()
	hist := metrics.DegreeHistogram(degrees)
	pts := metrics.SortedDegreePoints(hist)
	var xs, ys []float64
	maxDeg := 0
	for _, p := range pts {
		xs = append(xs, float64(p.Degree))
		ys = append(ys, float64(p.Count))
		if p.Degree > maxDeg {
			maxDeg = p.Degree
		}
	}
	slope, intercept, ok := metrics.LogLogSlope(xs, ys)
	return DegreeDistributionResult{
		Points:    pts,
		Slope:     slope,
		Intercept: intercept,
		FitOK:     ok,
		MaxDegree: maxDeg,
	}
}

// degreeFigureAt writes the log-log degree distribution of an n-peer
// GroupCast overlay, or of the PLOD (α = 1.8) baseline: Figures 7 and 8.
func degreeFigureAt(w io.Writer, seed int64, n int, groupCast bool, header string) error {
	p, err := BuildPipeline(DefaultPipelineConfig(n, seed))
	if err != nil {
		return err
	}
	var g *overlay.Graph
	if groupCast {
		g, _, _, err = p.GroupCastOverlay(seed)
	} else {
		g, _, err = p.PLODOverlay(seed)
	}
	if err != nil {
		return err
	}
	res := DegreeDistribution(g)
	fmt.Fprintln(w, header)
	fmt.Fprintf(w, "%-10s %s\n", "degree", "peers")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%-10d %d\n", pt.Degree, pt.Count)
	}
	fmt.Fprintf(w, "# log-log slope %.2f (fit ok=%v), max degree %d, clustering %.4f\n",
		res.Slope, res.FitOK, res.MaxDegree, overlay.ClusteringCoefficient(g))
	return nil
}

// NeighborDistanceResult summarizes Figures 9/10: per-peer mean distance to
// overlay neighbours on the true underlay.
type NeighborDistanceResult struct {
	PerPeer []float64
	Summary metrics.Summary
}

// NeighborDistances measures mean true-underlay neighbour distance per peer
// (the coordinate estimate is what built the overlay; the figure reports the
// real latencies it achieved).
func (p *Pipeline) NeighborDistances(g *overlay.Graph) NeighborDistanceResult {
	per := make([]float64, 0, g.NumAlive())
	for _, i := range g.AlivePeers() {
		nbrs := g.Neighbors(i)
		if len(nbrs) == 0 {
			continue
		}
		var sum float64
		for _, j := range nbrs {
			sum += p.Att.Distance(netsim.PeerID(i), netsim.PeerID(j))
		}
		per = append(per, sum/float64(len(nbrs)))
	}
	s, _ := metrics.Summarize(per)
	return NeighborDistanceResult{PerPeer: per, Summary: s}
}

// neighborFigureAt writes the mean-neighbour-distance distribution of an
// n-peer GroupCast overlay, or of the PLOD baseline: Figures 9 and 10.
func neighborFigureAt(w io.Writer, seed int64, n int, groupCast bool, header string) error {
	p, err := BuildPipeline(DefaultPipelineConfig(n, seed))
	if err != nil {
		return err
	}
	var g *overlay.Graph
	if groupCast {
		g, _, _, err = p.GroupCastOverlay(seed)
	} else {
		g, _, err = p.PLODOverlay(seed)
	}
	if err != nil {
		return err
	}
	res := p.NeighborDistances(g)
	fmt.Fprintln(w, header)
	hist := metrics.Histogram(res.PerPeer, 10)
	fmt.Fprintf(w, "%-24s %s\n", "mean distance bin (ms)", "peers")
	for _, b := range hist {
		fmt.Fprintf(w, "[%7.1f, %7.1f)        %d\n", b.Lo, b.Hi, b.Count)
	}
	fmt.Fprintf(w, "# mean %.1f ms, max %.1f ms over %d peers\n",
		res.Summary.Mean, res.Summary.Max, res.Summary.N)
	return nil
}
