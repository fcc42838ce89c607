package dist

import (
	"math"
	"sort"
)

// SortInPlace sorts samples ascending in place and returns the same slice,
// ready for SortedQuantile/SortedMean. They summarise Monte-Carlo sample
// paths without allocating for callers that own a reusable sample buffer
// (the forecast hot path re-draws every slot each round, so destroying the
// previous order costs nothing).
func SortInPlace(samples []float64) []float64 {
	sort.Float64s(samples)
	return samples
}

// SortedQuantile returns the p-th sample quantile of an ascending-sorted
// slice, interpolating linearly between order statistics.
func SortedQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SortedMean returns the sample mean, accumulating in slice order, so the
// sum of a SortInPlace'd buffer does not depend on how it was drawn.
func SortedMean(sorted []float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return sum / float64(len(sorted))
}
