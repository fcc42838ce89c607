package optimize

import (
	"slices"
	"testing"
)

// oracleTheta and oracleGrid span the small instances the oracle tests
// enumerate: zero, just under, on and just over the one-node boundary,
// on the two-node boundary, and just past four nodes.
const oracleTheta = 60

var oracleGrid = []float64{0, 59.5, 60, 60.5, 120, 240.5}

// forEachPath calls fn with every workload path over oracleGrid of one to
// h steps. fn must not keep the path.
func forEachPath(h int, fn func(path []float64)) {
	var walk func(path []float64)
	walk = func(path []float64) {
		if len(path) > 0 {
			fn(path)
		}
		if len(path) == h {
			return
		}
		for _, w := range oracleGrid {
			walk(append(path, w))
		}
	}
	walk(make([]float64, 0, h))
}

// TestPlansMonotoneInDemand raises one step of every grid path to the
// next grid value: no step of the plan may fall. Single steps to the next
// value reach every pointwise-larger grid path, so this covers all of
// them.
func TestPlansMonotoneInDemand(t *testing.T) {
	forEachPath(4, func(path []float64) {
		low, err := Plan(path, oracleTheta)
		if err != nil {
			t.Fatalf("%v: %v", path, err)
		}
		for i, w := range path {
			next := slices.Index(oracleGrid, w) + 1
			if next == len(oracleGrid) {
				continue
			}
			higher := slices.Clone(path)
			higher[i] = oracleGrid[next]
			high, err := Plan(higher, oracleTheta)
			if err != nil {
				t.Fatalf("%v: %v", higher, err)
			}
			for j := range low {
				if high[j] < low[j] {
					t.Fatalf("raising %v to %v lowers step %d: %v -> %v", path, higher, j, low, high)
				}
			}
		}
	})
}

// TestPlansInvariantUnderRescale scales θ and every workload by one
// factor: Plan must return the same plan. The factors are powers of two,
// exact in binary floating point, so the property holds bit for bit on
// the node boundaries too. Any other factor rounds w and θ apart and can
// move an exact boundary by a node.
func TestPlansInvariantUnderRescale(t *testing.T) {
	scaled := make([]float64, 4)
	forEachPath(4, func(path []float64) {
		want, err := Plan(path, oracleTheta)
		if err != nil {
			t.Fatalf("%v: %v", path, err)
		}
		for _, k := range []float64{1.0 / 1024, 0.5, 2, 1 << 20} {
			for i, w := range path {
				scaled[i] = k * w
			}
			got, err := Plan(scaled[:len(path)], k*oracleTheta)
			if err != nil {
				t.Fatalf("%v ×%v: %v", path, k, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v at θ %v plans %v, scaled by %v it plans %v", path, oracleTheta, want, k, got)
			}
		}
	})
}

// TestSizeDemandNeverBeatsBruteForce holds SizeDemand to a brute-force
// walk of every (size, count) pair on small instances: every ladder of
// one to three sizes with capacities and costs from short grids, demand
// 0–16 units. SizeDemand's pick must cover the demand — so it can never
// come in under the cheapest covering pair — and cost exactly that
// minimum, ties going to fewer nodes and then the smaller size index.
func TestSizeDemandNeverBeatsBruteForce(t *testing.T) {
	capacities := []float64{0.5, 1, 1.5, 2, 3, 4}
	costs := []float64{1, 2, 3, 5, 8}
	var rungs []NodeSize
	for _, c := range capacities {
		for _, k := range costs {
			rungs = append(rungs, NodeSize{Capacity: c, Cost: k})
		}
	}
	check := func(sizes []NodeSize) {
		for units := 0; units <= 16; units++ {
			got, err := SizeDemand(units, sizes)
			if err != nil {
				t.Fatalf("SizeDemand(%d, %+v): %v", units, sizes, err)
			}
			want := SizedAlloc{}
			if units > 0 {
				want = bruteSize(units, sizes)
			}
			if got != want {
				t.Fatalf("SizeDemand(%d, %+v) = %+v, brute force %+v", units, sizes, got, want)
			}
			if units > 0 && float64(got.Count)*sizes[got.Size].Capacity < float64(units) {
				t.Fatalf("SizeDemand(%d, %+v) = %+v leaves demand uncovered", units, sizes, got)
			}
		}
	}
	for _, a := range rungs {
		check([]NodeSize{a})
		for _, b := range rungs {
			check([]NodeSize{a, b})
		}
	}
	// Three-size ladders: every ordered pair under a third rung from each
	// capacity at a mid-grid cost.
	for _, a := range rungs {
		for _, b := range rungs {
			for _, c := range capacities {
				check([]NodeSize{a, b, {Capacity: c, Cost: 3}})
			}
		}
	}
}

// bruteSize is the oracle for SizeDemand: the cheapest (count, size)
// covering units over every size and every count up to 2·units, what the
// smallest grid capacity (0.5) needs; ties go to fewer nodes and then the
// smaller index.
func bruteSize(units int, sizes []NodeSize) SizedAlloc {
	best, bestCost := SizedAlloc{Count: -1}, 0.0
	for idx, s := range sizes {
		for count := 1; count <= 2*units; count++ {
			if float64(count)*s.Capacity < float64(units) {
				continue
			}
			cost := float64(count) * s.Cost
			if best.Count == -1 || cost < bestCost || cost == bestCost && count < best.Count {
				best, bestCost = SizedAlloc{Count: count, Size: idx}, cost
			}
		}
	}
	return best
}
