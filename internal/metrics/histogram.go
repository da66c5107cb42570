package metrics

import (
	"math"
	"sort"
)

// Bin is one histogram bucket: values in [Lo, Hi) counted together.
type Bin struct {
	Lo    float64
	Hi    float64
	Count int
}

// Histogram buckets xs into nbins equal-width bins spanning [min, max].
// The final bin is closed on both ends so the maximum is counted.
// It returns nil for empty input or nbins < 1.
func Histogram(xs []float64, nbins int) []Bin {
	if len(xs) == 0 || nbins < 1 {
		return nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		return []Bin{{Lo: lo, Hi: hi, Count: len(xs)}}
	}
	width := (hi - lo) / float64(nbins)
	bins := make([]Bin, nbins)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Hi = lo + float64(i+1)*width
	}
	for _, x := range xs {
		// Clamp both ends: extreme inputs can overflow the division to NaN
		// or land outside [0, nbins) through rounding.
		idx := int((x - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= nbins {
			idx = nbins - 1
		}
		bins[idx].Count++
	}
	return bins
}

// DegreeHistogram counts how many nodes have each degree. Keys are degrees,
// values are node counts. Used for the Figure 7/8 log-log degree plots.
func DegreeHistogram(degrees []int) map[int]int {
	h := make(map[int]int, len(degrees)/4+1)
	for _, d := range degrees {
		h[d]++
	}
	return h
}

// DegreePoint is one (degree, count) pair of a degree distribution.
type DegreePoint struct {
	Degree int
	Count  int
}

// SortedDegreePoints flattens a degree histogram into points sorted by degree.
func SortedDegreePoints(h map[int]int) []DegreePoint {
	pts := make([]DegreePoint, 0, len(h))
	for d, c := range h {
		pts = append(pts, DegreePoint{Degree: d, Count: c})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Degree < pts[j].Degree })
	return pts
}

// LogLogSlope fits a least-squares line to (log10 x, log10 y) and returns its
// slope and intercept. Points with non-positive coordinates are skipped.
// Used to estimate the power-law exponent of degree distributions.
// ok is false when fewer than two usable points remain.
func LogLogSlope(xs, ys []float64) (slope, intercept float64, ok bool) {
	if len(xs) != len(ys) {
		return 0, 0, false
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log10(xs[i]))
			ly = append(ly, math.Log10(ys[i]))
		}
	}
	return LinearFit(lx, ly)
}

// LinearFit fits y = slope*x + intercept by least squares.
// ok is false when fewer than two points are given or x has zero variance.
func LinearFit(xs, ys []float64) (slope, intercept float64, ok bool) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, false
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, false
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, true
}
