// Package optimize solves the auto-scaling optimization problems of
// Definitions 3-5: minimize total compute nodes subject to per-step
// workload thresholds. The unconstrained problem decomposes per step into
// a closed form (a simplex LP solver in the tests is its oracle for the
// general relaxed problem), and a dynamic program solves the
// thrashing-constrained integer variant from Section V-A exactly.
package optimize

import (
	"fmt"
	"math"
	"slices"
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

// ThrashingConfig bounds how fast the node count may change, the
// anti-flapping constraint discussed in Section V-A.
type ThrashingConfig struct {
	// Initial is the node count in effect before the first planned step.
	Initial int
	// MaxDelta is the maximum absolute change in node count per step.
	MaxDelta int
}

// PlanConstrained solves Definition 3 with the additional constraints
// |c_t - c_{t-1}| <= MaxDelta exactly via dynamic programming over node
// counts. When the rate limit makes a step's demand unsatisfiable, the
// plan allocates as many nodes as the constraint allows (the least-bad
// feasible choice) and the step shows up as under-provisioned in the
// evaluation.
func PlanConstrained(workload []float64, theta float64, cfg ThrashingConfig) ([]int, error) {
	if theta <= 0 {
		return nil, fmt.Errorf("optimize: non-positive threshold %v", theta)
	}
	if cfg.MaxDelta <= 0 {
		return nil, fmt.Errorf("optimize: non-positive MaxDelta %d", cfg.MaxDelta)
	}
	demand := make([]int, len(workload))
	for i, w := range workload {
		demand[i] = Allocate(w, theta)
	}
	return PlanConstrainedDemand(demand, cfg)
}

// PlanConstrainedDemand is PlanConstrained over an already-computed integer
// demand path; used to rate-limit any strategy's raw allocation plan.
func PlanConstrainedDemand(demand []int, cfg ThrashingConfig) ([]int, error) {
	if cfg.MaxDelta <= 0 {
		return nil, fmt.Errorf("optimize: non-positive MaxDelta %d", cfg.MaxDelta)
	}
	h := len(demand)
	if h == 0 {
		return nil, nil
	}
	maxNodes := max(1, max(cfg.Initial, slices.Max(demand))+cfg.MaxDelta)
	cfg.Initial = min(max(1, cfg.Initial), maxNodes)

	const inf = math.MaxInt64 / 4
	cur := make([]dpState, maxNodes+1)
	for c := range cur {
		cur[c] = dpState{cost: inf, shortfall: inf, prev: -1}
	}
	// Step 0: reachable from Initial.
	for c := max(1, cfg.Initial-cfg.MaxDelta); c <= min(maxNodes, cfg.Initial+cfg.MaxDelta); c++ {
		short := int64(0)
		if c < demand[0] {
			short = int64(demand[0] - c)
		}
		cur[c] = dpState{cost: int64(c), shortfall: short, prev: cfg.Initial}
	}

	prevStates := make([][]dpState, h)
	prevStates[0] = cur
	for t := 1; t < h; t++ {
		next := make([]dpState, maxNodes+1)
		for c := range next {
			next[c] = dpState{cost: inf, shortfall: inf, prev: -1}
		}
		for c := 1; c <= maxNodes; c++ {
			short := int64(0)
			if c < demand[t] {
				short = int64(demand[t] - c)
			}
			for p := max(1, c-cfg.MaxDelta); p <= min(maxNodes, c+cfg.MaxDelta); p++ {
				ps := cur[p]
				if ps.prev == -1 {
					continue
				}
				cand := dpState{
					cost:      ps.cost + int64(c),
					shortfall: ps.shortfall + short,
					prev:      p,
				}
				if better(cand, next[c]) {
					next[c] = cand
				}
			}
		}
		cur = next
		prevStates[t] = cur
	}

	// Pick the best final state and backtrack.
	best := -1
	for c := 1; c <= maxNodes; c++ {
		if cur[c].prev == -1 {
			continue
		}
		if best == -1 || better(cur[c], cur[best]) {
			best = c
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("optimize: no feasible constrained plan")
	}
	out := make([]int, h)
	c := best
	for t := h - 1; t >= 0; t-- {
		out[t] = c
		c = prevStates[t][c].prev
	}
	return out, nil
}

// dpState is one cell of the constrained-planning dynamic program:
// cumulative node cost and demand shortfall to reach a node count, with a
// back-pointer for plan reconstruction. Shortfall dominates the ordering,
// so demand is met whenever the rate limit permits.
type dpState struct {
	cost      int64
	shortfall int64
	prev      int
}

// better orders states by (shortfall, cost): meeting demand dominates
// saving nodes.
func better(a, b dpState) bool {
	if a.shortfall != b.shortfall {
		return a.shortfall < b.shortfall
	}
	return a.cost < b.cost
}
