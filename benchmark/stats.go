package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is set by a handful of outliers and does
// not repeat from run to run.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// rank returns the 1-based nearest rank of quantile q among n samples:
// the smallest k with k >= q*n. The epsilon keeps 0.99*1000 at 990
// despite binary rounding.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond returns how many of n samples rank above quantile q.
func beyond(n int, q float64) int { return n - rank(n, q) }

// tailQuantile returns the highest percentile, at most ceiling, that has
// at least minBeyond of n samples beyond it (0.5 when none has).
func tailQuantile(n int, ceiling float64) float64 {
	for _, q := range tailLadder {
		if q <= ceiling+1e-12 && beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median (the lower middle for even n).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// mean returns the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so -repeat reports spreads exactly as that
// function would compute them.
func quartiles(xs []float64) [3]float64 {
	d := sorted(xs)
	n := len(d)
	var out [3]float64
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
