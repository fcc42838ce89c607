package optimize

// The simplex is the closed form's independent oracle: tests and the
// solver ablation bench solve Equation 6 as a general LP and compare.

import (
	"fmt"
	"math"
)

// LP is a linear program in the form
//
//	minimize    c^T x
//	subject to  A x >= b,  x >= 0.
//
// It is the general form of the relaxed robust auto-scaling problem
// (Equation 6 before integrality): one variable per step and one
// threshold constraint per step.
type LP struct {
	C []float64   // objective coefficients
	A [][]float64 // constraint matrix, one row per constraint
	B []float64   // right-hand sides
}

// SolveSimplex solves the LP with the Big-M simplex method, returning the
// optimal x and objective value. It reports an error for infeasible or
// unbounded problems.
func SolveSimplex(lp LP) ([]float64, float64, error) {
	n := len(lp.C)
	m := len(lp.A)
	if m != len(lp.B) {
		return nil, 0, fmt.Errorf("optimize: %d constraint rows vs %d rhs values", m, len(lp.B))
	}
	for i, row := range lp.A {
		if len(row) != n {
			return nil, 0, fmt.Errorf("optimize: constraint %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if n == 0 {
		return nil, 0, nil
	}

	// Convert Ax >= b to equalities with surplus variables, flipping rows
	// with negative b so every RHS is non-negative, then add artificial
	// variables with Big-M cost.
	// Columns: n original + m surplus + m artificial.
	cols := n + 2*m
	bigM := 1e7 * (1 + maxAbs(lp.C))
	tab := make([][]float64, m+1) // last row is the objective
	for i := 0; i <= m; i++ {
		tab[i] = make([]float64, cols+1)
	}
	basis := make([]int, m)

	for i := 0; i < m; i++ {
		sign := 1.0
		surplus := -1.0 // Ax - s = b for >= rows
		if lp.B[i] < 0 {
			sign = -1.0
			surplus = 1.0 // -Ax + s = -b, i.e. <= row gains a slack
		}
		for j := 0; j < n; j++ {
			tab[i][j] = sign * lp.A[i][j]
		}
		tab[i][n+i] = surplus
		tab[i][n+m+i] = 1
		tab[i][cols] = sign * lp.B[i]
		basis[i] = n + m + i
	}
	// Objective row: c for originals, bigM for artificials, then reduce by
	// the basic artificial rows to price them out.
	obj := tab[m]
	for j := 0; j < n; j++ {
		obj[j] = lp.C[j]
	}
	for i := 0; i < m; i++ {
		obj[n+m+i] = bigM
	}
	for i := 0; i < m; i++ {
		for j := 0; j <= cols; j++ {
			obj[j] -= bigM * tab[i][j]
		}
	}

	const maxIter = 10000
	for iter := 0; iter < maxIter; iter++ {
		// Entering variable: most negative reduced cost.
		pivotCol := -1
		minVal := -1e-9
		for j := 0; j < cols; j++ {
			if obj[j] < minVal {
				minVal = obj[j]
				pivotCol = j
			}
		}
		if pivotCol == -1 {
			break // optimal
		}
		// Leaving variable: minimum ratio test.
		pivotRow := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][pivotCol] > 1e-9 {
				ratio := tab[i][cols] / tab[i][pivotCol]
				if ratio < bestRatio-1e-12 {
					bestRatio = ratio
					pivotRow = i
				}
			}
		}
		if pivotRow == -1 {
			return nil, 0, fmt.Errorf("optimize: LP unbounded")
		}
		pivot(tab, pivotRow, pivotCol)
		basis[pivotRow] = pivotCol
	}

	// Infeasible if an artificial variable remains basic at nonzero level.
	for i, b := range basis {
		if b >= n+m && tab[i][cols] > 1e-6 {
			return nil, 0, fmt.Errorf("optimize: LP infeasible")
		}
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][cols]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += lp.C[j] * x[j]
	}
	return x, objVal, nil
}

func pivot(tab [][]float64, row, col int) {
	p := tab[row][col]
	for j := range tab[row] {
		tab[row][j] /= p
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := range tab[i] {
			tab[i][j] -= f * tab[row][j]
		}
	}
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// PlanLP solves the relaxed auto-scaling problem (Equation 6) as an LP —
// min sum c_t subject to c_t >= w_t/theta — and rounds up to integers.
// It validates the closed-form Plan (TestPlanLPMatchesClosedForm) and
// is the other side of BenchmarkAblationSolver; both produce identical
// allocations.
func PlanLP(workload []float64, theta float64) ([]int, error) {
	if theta <= 0 {
		return nil, fmt.Errorf("optimize: non-positive threshold %v", theta)
	}
	h := len(workload)
	if h == 0 {
		return nil, nil
	}
	lp := LP{
		C: make([]float64, h),
		A: make([][]float64, h),
		B: make([]float64, h),
	}
	for t := 0; t < h; t++ {
		lp.C[t] = 1
		row := make([]float64, h)
		row[t] = 1
		lp.A[t] = row
		lp.B[t] = workload[t] / theta
	}
	x, _, err := SolveSimplex(lp)
	if err != nil {
		return nil, err
	}
	out := make([]int, h)
	for t := 0; t < h; t++ {
		c := int(math.Ceil(x[t] - 1e-9))
		if c < 1 {
			c = 1
		}
		out[t] = c
	}
	return out, nil
}
