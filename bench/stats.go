package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; NaN for
// an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := (float64(len(s)) - 1) * p / 100
	lo := math.Floor(h)
	if int(lo) >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[int(lo)] + (h-lo)*(s[int(lo)+1]-s[int(lo)])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidates of the tail rule, lowest first.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten of n samples beyond it, so the tail is never read off a
// handful of outliers: n=1000 gives p99, n=100 gives p90. Below twenty
// samples no candidate qualifies and the median is used.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// tail returns the tail-rule percentile of xs, the percentile used and
// the sample count.
func tail(xs []float64) (value, pct float64, n int) {
	pct = tailPercentile(len(xs))
	return percentile(xs, pct), pct, len(xs)
}

// spread is (max - min) / median of per-round values: the share by
// which one round can differ from another. Zero for fewer than two
// rounds.
func spread(rounds []float64) float64 {
	if len(rounds) < 2 {
		return 0
	}
	lo, hi := rounds[0], rounds[0]
	for _, v := range rounds {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(rounds)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}
