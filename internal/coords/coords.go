// Package coords implements the network coordinate systems the paper relies
// on for distance estimation: a GNP-style landmark embedding (Ng & Zhang) and
// Vivaldi (Dabek et al.), both referenced in Section 3.1 ("Vivaldi and GNP
// are some of the techniques proposed for measuring the network coordinates
// of nodes in wide area networks").
package coords

import (
	"errors"
	"math"
)

// Point is a network coordinate in Euclidean space.
type Point []float64

// Clone returns a copy of the point.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Dist returns the Euclidean distance between two points. Mismatched
// dimensions compare only the shared prefix.
func Dist(a, b Point) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var ss float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// ErrBadConfig is returned for invalid embedding configurations.
var ErrBadConfig = errors.New("coords: invalid configuration")
