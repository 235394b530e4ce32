package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between the closest ranks: position p/100·(n-1) in the
// sorted samples. xs is not modified. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of xs, or NaN when xs is empty or
// holds a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{50, 60, 66, 75, 90, 95, 99, 99.9}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to count as a tail.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// geoPercentile combines each program's p-th percentile latency by
// geometric mean, visiting programs in a fixed order.
func geoPercentile(lat map[string][]float64, p float64) float64 {
	names := make([]string, 0, len(lat))
	for n := range lat {
		names = append(names, n)
	}
	sort.Strings(names)
	vals := make([]float64, 0, len(names))
	for _, n := range names {
		vals = append(vals, percentile(lat[n], p))
	}
	return geomean(vals)
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
