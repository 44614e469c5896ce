package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// percentile and median are the repository's own (linear interpolation
// between closest ranks; 0 for an empty slice).
func percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// tailCandidates are the tail percentiles a timing may be reported at.
var tailCandidates = []float64{90, 95, 99, 99.9}

// highestTail returns the highest percentile of tailCandidates that still
// has at least ten of n samples beyond it, or 50 when none does: a p99
// over 500 cycles rests on five samples and says little.
func highestTail(n int) float64 {
	best := 50.0
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-6 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver that gates this benchmark computes. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median, the
// run-to-run steadiness figure every bound is held against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}
