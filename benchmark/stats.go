package main

import (
	"math"
	"slices"
)

// sorted sorts v in place and returns it.
func sorted(v []int64) []int64 {
	slices.Sort(v)
	return v
}

// percentile is the nearest-rank q-quantile of sorted samples (0 if
// there are none): the smallest sample with at least q of the samples at
// or below it. No interpolation and no buckets, so a reported value is
// always a latency some request really had.
func percentile(sortedSamples []int64, q float64) float64 {
	n := len(sortedSamples)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return float64(sortedSamples[min(max(i, 0), n-1)])
}

// tailPercentile is the highest percentile worth reporting from n
// samples: the highest of p50, p90, p99, p99.9 that still has at least
// ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is
// what the driver uses to judge spread. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		d := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of v (0 if empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if m := len(s); m%2 == 1 {
		return s[m/2]
	} else {
		return (s[m/2-1] + s[m/2]) / 2
	}
}

// spread is the inter-quartile distance of v as a share of its median,
// the driver's measure of run-to-run noise; 0 when it is undefined.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
