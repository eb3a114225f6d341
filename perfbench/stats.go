package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// samples, and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailPercentile returns the highest percentile not above want that keeps
// at least minBeyond samples beyond it, stepping down by whole percents,
// together with the percentile actually used. With n samples, want is met
// once n·(1−want) ≥ minBeyond — p95 needs 200.
func tailPercentile(sorted []float64, want float64) (v, used float64) {
	for p := want; p > 0.5; p = math.Round((p-0.01)*100) / 100 {
		if v, beyond := percentile(sorted, p); beyond >= minBeyond {
			return v, p
		}
	}
	v, _ = percentile(sorted, 0.5)
	return v, 0.5
}

// median returns the median of xs (the mean of the middle pair for even
// counts) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
