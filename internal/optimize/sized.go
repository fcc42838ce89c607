// Vertical sizing: the serverless scaling model adds a second decision
// dimension — node size, not just count — and the joint (count × size)
// choice goes through the same robust-quantile objective as the scalar
// problem: the quantile plan fixes the demand in base-node units, and the
// sizing pass picks the cheapest mix of identical nodes covering it.
//
// Larger sizes are deliberately sublinear in cost (a 4x node costs less
// than 4 small ones), so the joint decision is non-trivial: consolidating
// onto bigger nodes saves money at high demand while small nodes keep the
// idle floor cheap.
package optimize

import (
	"fmt"
	"math"
)

// NodeSize is one rung of the vertical scaling ladder.
type NodeSize struct {
	// Name labels the size in reports ("small", "large", ...).
	Name string
	// Capacity is the workload the node absorbs relative to a base node:
	// a node of capacity c serves c*theta workload units per step.
	Capacity float64
	// Cost is the per-step cost of one node of this size, in the same
	// node-step units the scalar model charges one base node per step.
	Cost float64
}

// SizedAlloc is one joint allocation decision: Count nodes of the size at
// index Size in the ladder the decision was made against.
type SizedAlloc struct {
	Count int
	Size  int
}

// ValidateSizes rejects ladders the sizing pass cannot optimize over.
func ValidateSizes(sizes []NodeSize) error {
	if len(sizes) == 0 {
		return fmt.Errorf("optimize: empty node-size ladder")
	}
	for i, s := range sizes {
		if s.Capacity <= 0 || s.Cost <= 0 {
			return fmt.Errorf("optimize: size %d (%s) needs positive capacity and cost, got %v/%v",
				i, s.Name, s.Capacity, s.Cost)
		}
	}
	return nil
}

// SizeDemand converts an integer demand in base-node units into the
// cheapest (count, size) covering it: minimize count*Cost subject to
// count*Capacity >= units. Ties break toward fewer nodes (less churn),
// then the smaller size index. A non-positive demand returns the empty
// allocation {0, 0} — the scale-to-zero outcome.
func SizeDemand(units int, sizes []NodeSize) (SizedAlloc, error) {
	if err := ValidateSizes(sizes); err != nil {
		return SizedAlloc{}, err
	}
	if units <= 0 {
		return SizedAlloc{}, nil
	}
	best := SizedAlloc{Count: -1}
	bestCost := 0.0
	for idx, s := range sizes {
		count := int(math.Ceil(float64(units) / s.Capacity))
		if float64(count)*s.Capacity < float64(units) {
			count++
		}
		count = max(1, count)
		cost := float64(count) * s.Cost
		if best.Count == -1 || cost < bestCost ||
			(cost == bestCost && count < best.Count) {
			best = SizedAlloc{Count: count, Size: idx}
			bestCost = cost
		}
	}
	return best, nil
}
