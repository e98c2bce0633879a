package main

import (
	"math"
	"sort"
)

// summary is a sample series reduced to its median and quartiles.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile returns the p-quantile (0 < p < 1) of sorted values by linear
// interpolation between order statistics at rank p·(n+1) — the
// "exclusive" method of Python's statistics.quantiles, so quartiles here
// match the ones a reader computes from the same values.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	h := p * float64(n+1)
	lo := int(math.Floor(h))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	return sorted[lo-1] + (h-float64(lo))*(sorted[lo]-sorted[lo-1])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
