package dist

import "math"

// SortedMean returns the sample mean, accumulating in slice order, so the
// mean of a sorted sample buffer does not depend on how it was drawn.
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
