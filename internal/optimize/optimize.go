// Package optimize solves the auto-scaling optimization problems of
// Definitions 3-5: minimize total compute nodes subject to per-step
// workload thresholds. The problem decomposes per step into a closed
// form (a simplex LP solver in the tests is its oracle for the general
// relaxed problem).
package optimize

import (
	"fmt"
	"math"
)

// Allocate returns the minimum integer node count c >= 1 satisfying
// w/c <= theta — the per-step solution of Definition 3.
func Allocate(w, theta float64) int {
	if w <= 0 {
		return 1
	}
	c := int(math.Ceil(w / theta))
	if float64(c)*theta < w {
		c++
	}
	return max(1, c)
}

// Plan solves the multi-step problem for a workload path under a uniform
// threshold: the optimum decomposes per step.
func Plan(workload []float64, theta float64) ([]int, error) {
	return PlanInto(workload, theta, nil)
}

// PlanInto is Plan writing into dst, reallocating only when dst lacks
// capacity — the allocation-free steady state of a high-frequency control
// loop replanning every step.
func PlanInto(workload []float64, theta float64, dst []int) ([]int, error) {
	if theta <= 0 {
		return nil, fmt.Errorf("optimize: non-positive threshold %v", theta)
	}
	if cap(dst) < len(workload) {
		dst = make([]int, len(workload))
	}
	dst = dst[:len(workload)]
	for i, w := range workload {
		dst[i] = Allocate(w, theta)
	}
	return dst, nil
}
