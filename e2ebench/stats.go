package main

import "sort"

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks, together with the number of samples
// it was computed from. An empty input yields (0, 0): callers report the
// count next to the value, so an empty quantile is never mistaken for a
// measured zero.
func percentile(xs []float64, q float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1], n
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo]), n
}

// median is percentile(xs, 0.5) without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// mean returns the arithmetic mean of xs (0 for an empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
