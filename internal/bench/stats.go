package bench

import (
	"math"
	"sort"
)

// quantileNs returns the nearest-rank q-quantile of latencies kept as integer
// nanoseconds and sorted ascending by the caller (the driver sorts each
// phase's samples once): the smallest sample with at least a share q of the
// samples at or below it. An empty sample yields NaN, which the report
// refuses to print.
func quantileNs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return float64(sorted[rank(len(sorted), q)])
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count). Every reported number is the Median over the rounds of
// that round's statistic, so one noisy round moves one sample, not the result.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
