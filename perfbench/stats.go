package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two closest ranks, the estimator Python's
// statistics.quantiles uses with method="inclusive". It returns 0 for an
// empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latency is a timing distribution as the report states it: median, the
// 99th percentile, and the number of samples both were taken from.
type latency struct {
	N        int
	P50, P99 float64
}

// summarize reduces per-operation samples to a latency.
func summarize(xs []float64) latency {
	return latency{N: len(xs), P50: quantile(xs, 0.5), P99: quantile(xs, 0.99)}
}

// beyond reports how many samples lie strictly above the latency's p99, the
// figure the report prints so a reader can judge how well that tail is
// supported.
func (l latency) beyond(xs []float64) int {
	n := 0
	for _, x := range xs {
		if x > l.P99 {
			n++
		}
	}
	return n
}
