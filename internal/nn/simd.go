package nn

import (
	"fmt"
	"math"
)

// The LSTM's and the attention's products, forward and backward, the
// LSTM's gates and Adam run on AVX and FMA kernels where the CPU has them
// (simd_amd64.s), and on the Go kernels everywhere else, with the same
// bits: each SIMD lane computes exactly the expression the Go kernel
// computes for that element (DESIGN.md §4).

// LSTMPanels is a cell's Wx and Wh packed for the panel kernels of
// StepBatch and Sequence. The zero value, and a pack made where the
// kernels are off, run the Go kernels instead.
type LSTMPanels struct{ wx, wh []float64 }

// PackPanels packs the cell's weights for StepBatch and Sequence, each
// matrix one request to s. The pack copies the weights: it is stale once
// they change and dead at s's next Reset. Both only read it, so
// concurrent calls may share one.
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

// mulVecsPacked is mulVecsInto on m's panels: panelVecs computes the
// panels' rows of every vector and MulVecInto's tail loop the Rows%4
// rows after them. Each lane keeps mulVecsInto's expression, so the
// result is the same bits whichever kernel computes it (pinned by
// TestMulVecsIntoBitIdentical). A nil panels, and a shape with no panel
// or no column, runs mulVecsInto.
func (m Mat) mulVecsPacked(panels []float64, x, dst Mat) {
	np := m.Rows / 4
	if panels == nil || np == 0 || m.Cols == 0 {
		m.mulVecsInto(x, dst)
		return
	}
	if x.Cols != m.Cols || dst.Rows != x.Rows || dst.Cols != m.Rows || len(panels) != np*4*m.Cols {
		panic(fmt.Sprintf("nn: mulVecsPacked dimension mismatch: %dx%d (%d packed) by %dx%d into %dx%d",
			m.Rows, m.Cols, len(panels), x.Rows, x.Cols, dst.Rows, dst.Cols))
	}
	panelVecs(panels, np, m.Cols, x.Data, x.Cols, x.Rows, dst.Data, dst.Cols)
	for u := 0; u < x.Rows; u++ {
		xu, du := x.Row(u), dst.Row(u)
		for i := 4 * np; i < m.Rows; i++ {
			sum := 0.0
			for j, w := range m.rowOf(i, xu) {
				sum += w * xu[j]
			}
			du[i] = sum
		}
	}
}

// packPanelsT packs mᵀ's first Cols&^3 rows as packPanels packs a
// matrix's: column i of panel p is m's row i, columns 4p to 4p+3, four
// contiguous floats. mulVecsT reads the Cols%4 tail from m itself.
func (m Mat) packPanelsT(s *Scratch) []float64 {
	n := m.Rows
	out := s.Vec(m.Cols / 4 * 4 * n)
	for p := 0; p < m.Cols/4; p++ {
		for i := 0; i < n; i++ {
			copy(out[(p*n+i)*4:(p*n+i+1)*4], m.Data[i*m.Cols+4*p:])
		}
	}
	return out
}

// mulVecsT overwrites row u of dst with mᵀ times row u of y, MulVecTInto's
// bits: on panels (packPanelsT) as panelVecs and a Go tail, 0 + y[0]*m[0][j]
// + ... with no term skipped, which is MulVecTInto's expression for a row
// with no zero. A row with a zero (zero[u] != 0, as the caller recorded
// when it wrote the row), and every row without panels, runs MulVecTInto.
func (m Mat) mulVecsT(panels []float64, y, dst Mat, zero []float64) {
	np := m.Cols / 4
	if panels != nil && np > 0 {
		panelVecs(panels, np, m.Rows, y.Data, y.Cols, y.Rows, dst.Data, dst.Cols)
	}
	for u := 0; u < y.Rows; u++ {
		yu, du := y.Row(u), dst.Row(u)
		if panels == nil || zero[u] != 0 {
			m.MulVecTInto(yu, du)
			continue
		}
		for j := 4 * np; j < m.Cols; j++ {
			sum := 0.0
			for i, yi := range yu {
				sum += yi * m.Data[i*m.Cols+j]
			}
			du[j] = sum
		}
	}
}

// panelVecs runs n vectors, vector v at x[v*xstride:] and cols long,
// against the first np panels of a pack of cols columns, and writes the
// 4·np rows of vector v's product at dst[v*dstride:]: eight vectors at a
// time on panelMul8, the last one to seven on panelMul1. np and cols
// must be positive.
func panelVecs(panels []float64, np, cols int, x []float64, xstride, n int, dst []float64, dstride int) {
	if n == 0 {
		return
	}
	// The kernels check nothing: every slice must hold what they reach.
	_, _, _ = panels[np*4*cols-1], x[(n-1)*xstride+cols-1], dst[(n-1)*dstride+4*np-1]
	v := 0
	for ; v+8 <= n; v += 8 {
		panelMul8(&panels[0], np, cols, &x[v*xstride], xstride, &dst[v*dstride], dstride)
	}
	for ; v < n; v++ {
		panelMul1(&panels[0], np, cols, &x[v*xstride], &dst[v*dstride])
	}
}

// Sin, Log and Exp overwrite every x[i] with math.Sin, math.Log and
// math.Exp of it, bit for bit: four at a time on the lane kernels where
// useSIMD holds, and by the math function for each group a kernel refuses
// (a NaN or ±Inf lane, or |x| >= 1<<29 for Sin, x <= 0 for Log, x outside
// [-708, 709] for Exp), the len(x)%4 tail, and everywhere else. Each
// calls its kernel directly, so x does not escape.
func Sin(x []float64) {
	for i := 0; i < len(x); i++ {
		if useSIMD && i&3 == 0 {
			if i += sinLanes(x[i : len(x)&^3]); i == len(x) {
				return
			}
		}
		x[i] = math.Sin(x[i])
	}
}

// Log is Sin for math.Log.
func Log(x []float64) {
	for i := 0; i < len(x); i++ {
		if useSIMD && i&3 == 0 {
			if i += logLanes(x[i : len(x)&^3]); i == len(x) {
				return
			}
		}
		x[i] = math.Log(x[i])
	}
}

// Exp is Sin for math.Exp.
func Exp(x []float64) {
	for i := 0; i < len(x); i++ {
		if useSIMD && i&3 == 0 {
			if i += expLanes(x[i : len(x)&^3]); i == len(x) {
				return
			}
		}
		x[i] = math.Exp(x[i])
	}
}

// math.Exp's FMA and plain sequences give results one ulp apart on
// expProbe: expProbeFMA and 1.4549914146182013. Pinned by
// TestExpProbeSplitsTheSequences.
const expProbe, expProbeFMA = 0.375, 1.4549914146182015
