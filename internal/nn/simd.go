package nn

import (
	"fmt"
	"math"
)

// StepBatch's two hot loops run on AVX and FMA kernels where the CPU has
// them (simd_amd64.s), and on the Go kernels everywhere else, with the
// same bits: each SIMD lane computes exactly the expression the Go kernel
// computes for that element (DESIGN.md §4).

// LSTMPanels is a cell's Wx and Wh packed for StepBatch's panel kernel.
// The zero value, and a pack made where the kernel is off, run the Go
// kernel instead.
type LSTMPanels struct{ wx, wh []float64 }

// PackPanels packs the cell's weights for StepBatch into buffers drawn
// from s. The pack copies the weights: it is stale once they change and
// dead at s's next Reset. StepBatch only reads it, so concurrent calls
// may share one.
func (c *LSTMCell) PackPanels(s *Scratch) LSTMPanels {
	if !useSIMD {
		return LSTMPanels{}
	}
	return LSTMPanels{wx: c.Wx.Value.packPanels(s), wh: c.Wh.Value.packPanels(s)}
}

// packPanels lays m's first Rows&^3 rows out as panels of four rows
// stored column by column: row 4p+r, column j is at [p*4*Cols + 4*j + r],
// so one 256-bit load reads a column of a panel. The Rows%4 tail rows are
// read from m itself.
func (m Mat) packPanels(s *Scratch) []float64 {
	n := m.Cols
	out := s.Vec(m.Rows / 4 * 4 * n)
	for p := 0; p < m.Rows/4; p++ {
		panel := out[p*4*n : (p+1)*4*n]
		for r := 0; r < 4; r++ {
			for j, v := range m.Row(4*p + r) {
				panel[4*j+r] = v
			}
		}
	}
	return out
}

// mulVecsPacked is mulVecsInto on m's panels: vectors go through
// panelMul8 eight at a time, and the last one to seven through
// mulVecsInto. Each lane keeps mulVecsInto's expression, so
// the result is the same bits whichever kernel computes it (pinned by
// TestMulVecsIntoBitIdentical). A nil panels runs mulVecsInto.
func (m Mat) mulVecsPacked(panels []float64, x, dst Mat) {
	if panels == nil {
		m.mulVecsInto(x, dst)
		return
	}
	if x.Cols != m.Cols || dst.Rows != x.Rows || dst.Cols != m.Rows || len(panels) != m.Rows/4*4*m.Cols {
		panic(fmt.Sprintf("nn: mulVecsPacked dimension mismatch: %dx%d (%d packed) by %dx%d into %dx%d",
			m.Rows, m.Cols, len(panels), x.Rows, x.Cols, dst.Rows, dst.Cols))
	}
	np := m.Rows / 4
	v := 0
	if np > 0 && m.Cols > 0 {
		for ; v+8 <= x.Rows; v += 8 {
			panelMul8(&panels[0], np, m.Cols, &x.Data[v*x.Cols], x.Cols, &dst.Data[v*dst.Cols], dst.Cols)
		}
	}
	// The panels' vectors still lack the tail rows: MulVecInto's tail loop.
	for u := 0; u < v; u++ {
		xu, du := x.Row(u), dst.Row(u)
		for i := 4 * np; i < m.Rows; i++ {
			sum := 0.0
			for j, w := range m.rowOf(i, xu) {
				sum += w * xu[j]
			}
			du[i] = sum
		}
	}
	if v < x.Rows {
		m.mulVecsInto(x.rowsFrom(v), dst.rowsFrom(v))
	}
}

// rowsFrom is the view of rows v onward.
func (m Mat) rowsFrom(v int) Mat {
	return Mat{Rows: m.Rows - v, Cols: m.Cols, Data: m.Data[v*m.Cols:]}
}

// math.Exp's FMA and plain sequences give results one ulp apart on
// expProbe: expProbeFMA and 1.4549914146182013. Pinned by
// TestExpProbeSplitsTheSequences.
const expProbe, expProbeFMA = 0.375, 1.4549914146182015

// expInPlace overwrites every x[i] with math.Exp(x[i]). Where useSIMD holds,
// expLanes takes four at a time; a group it refuses (a lane outside
// [-708, 709], or NaN) and the len%4 tail go through math.Exp.
func expInPlace(x []float64) {
	if useSIMD {
		for len(x) >= 4 {
			x = x[expLanes(x):]
			if len(x) < 4 {
				break
			}
			for i, v := range x[:4] {
				x[i] = math.Exp(v)
			}
			x = x[4:]
		}
	}
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}

// The gates split sigmoid and tanh (dense.go) around their one math.Exp:
// the ...Arg half gives the exp's argument, expInPlace takes the exps of
// a whole batch, and the ...From half finishes with the same expression
// on the same exp, so the result carries the same bits.

func sigmoidArg(x float64) float64 {
	if x >= 0 {
		return -x
	}
	return x
}

func sigmoidFrom(x, e float64) float64 {
	if x >= 0 {
		return 1 / (1 + e)
	}
	return e / (1 + e)
}

// tanhMaxLog is math.Tanh's MAXLOG: beyond half of it tanh is ±1.
const tanhMaxLog = 8.8029691931113054295988e+01

// tanhTakesExp reports whether math.Tanh(x) takes its exp branch,
// 0.625 <= |x| <= MAXLOG/2; false for NaN.
func tanhTakesExp(x float64) bool {
	z := math.Abs(x)
	return z >= 0.625 && z <= 0.5*tanhMaxLog
}

// tanhArg is the argument of math.Tanh's exp, 2|x|, or 0 where it takes
// none.
func tanhArg(x float64) float64 {
	if tanhTakesExp(x) {
		return 2 * math.Abs(x)
	}
	return 0
}

// tanhFrom is math.Tanh(x) given s = math.Exp(tanhArg(x)); the branches
// without an exp are math.Tanh's own.
func tanhFrom(x, s float64) float64 {
	if !tanhTakesExp(x) {
		return math.Tanh(x)
	}
	z := 1 - 2/(s+1)
	if x < 0 {
		z = -z
	}
	return z
}
