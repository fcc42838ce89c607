// Package nn is a small from-scratch neural network library supporting the
// probabilistic workload forecasters: dense layers, activations, an LSTM
// cell with full backpropagation through time, scaled dot-product
// attention, and the Adam optimizer. It exists because the repository is
// stdlib-only; the layers implement exactly what DeepAR- and TFT-style
// models need and nothing more.
//
// All layers follow the same convention: Forward returns the output plus a
// cache of the intermediates, and Backward consumes that cache with the
// upstream gradient, accumulating parameter gradients and returning input
// gradients. Caches make layers reusable across time steps, which BPTT
// requires.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view.
func (m Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m Mat) Clone() Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears all elements in place.
func (m Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes m * x for a column vector x (len Cols), returning a
// vector of length Rows.
func (m Mat) MulVec(x []float64) []float64 {
	return m.MulVecInto(x, make([]float64, m.Rows))
}

// MulVecInto is the allocation-free MulVec: it overwrites dst (len Rows)
// with m * x and returns dst. This is the innermost kernel of every BPTT
// step, so callers on the hot path hand it a scratch buffer.
//
// Four rows are computed per pass, each with its own accumulator over one
// shared load of x[j], so the CPU sees four independent add chains instead
// of one. Every dst[i] is still 0 + r[0]*x[0] + r[1]*x[1] + ... in column
// order, one multiply then one add, the same expression as the Rows%4 tail
// loop: that order is the determinism contract (no explicit fused
// multiply-add, no split or pairwise sums), pinned bit for bit by
// TestMulVecIntoBitIdentical.
func (m Mat) MulVecInto(x, dst []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("nn: MulVec dimension mismatch: %dx%d by %d", m.Rows, m.Cols, len(x)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecInto destination has %d rows, want %d", len(dst), m.Rows))
	}
	n := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		// Re-slicing the rows to len(x) lets the compiler drop the bounds
		// checks inside the column loop.
		base := i * n
		r0 := m.Data[base : base+n][:len(x)]
		r1 := m.Data[base+n : base+2*n][:len(x)]
		r2 := m.Data[base+2*n : base+3*n][:len(x)]
		r3 := m.Data[base+3*n : base+4*n][:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		row := m.Row(i)
		sum := 0.0
		for j, v := range row {
			sum += v * x[j]
		}
		dst[i] = sum
	}
	return dst
}

// mulVecsInto is MulVecInto over a batch of vectors: row v of dst (n x
// Rows) becomes m times row v of x (n x Cols). Four rows of m meet two
// vectors per pass, eight accumulators over one load of each row's and
// each vector's element, so m streams through the cache once per pair of
// vectors instead of once per vector. Every element keeps MulVecInto's
// expression, 0 + r[0]*x[0] + r[1]*x[1] + ... in column order, one
// multiply then one add, no explicit fused multiply-add and no zero term
// skipped; the Rows%4 tail and an odd last vector keep it too. Pinned bit
// for bit against MulVecInto by TestMulVecsIntoBitIdentical.
func (m Mat) mulVecsInto(x, dst Mat) {
	if x.Cols != m.Cols || dst.Rows != x.Rows || dst.Cols != m.Rows {
		panic(fmt.Sprintf("nn: mulVecsInto dimension mismatch: %dx%d by %dx%d into %dx%d",
			m.Rows, m.Cols, x.Rows, x.Cols, dst.Rows, dst.Cols))
	}
	n := m.Cols
	v := 0
	for ; v+2 <= x.Rows; v += 2 {
		x0 := x.Data[v*n : (v+1)*n]
		x1 := x.Data[(v+1)*n : (v+2)*n][:len(x0)]
		d0, d1 := dst.Row(v), dst.Row(v+1)
		i := 0
		for ; i+4 <= m.Rows; i += 4 {
			d0[i], d0[i+1], d0[i+2], d0[i+3], d1[i], d1[i+1], d1[i+2], d1[i+3] =
				dot4x2(m.rowOf(i, x0), m.rowOf(i+1, x0), m.rowOf(i+2, x0), m.rowOf(i+3, x0), x0, x1)
		}
		for ; i < m.Rows; i++ {
			r := m.rowOf(i, x0)
			var s0, s1 float64
			for j, a := range x0 {
				s0 += r[j] * a
				s1 += r[j] * x1[j]
			}
			d0[i], d1[i] = s0, s1
		}
	}
	if v < x.Rows {
		m.MulVecInto(x.Row(v), dst.Row(v))
	}
}

// dot4x2 is mulVecsInto's pass: the dot products of four rows with two
// vectors, all of len(x0). It is a function of its own so that only the
// loop's values compete for registers.
func dot4x2(r0, r1, r2, r3, x0, x1 []float64) (s00, s10, s20, s30, s01, s11, s21, s31 float64) {
	r0, r1, r2, r3, x1 = r0[:len(x0)], r1[:len(x0)], r2[:len(x0)], r3[:len(x0)], x1[:len(x0)]
	for j, a := range x0 {
		b := x1[j]
		s00 += r0[j] * a
		s01 += r0[j] * b
		s10 += r1[j] * a
		s11 += r1[j] * b
		s20 += r2[j] * a
		s21 += r2[j] * b
		s30 += r3[j] * a
		s31 += r3[j] * b
	}
	return
}

// MulVecT computes m^T * y for a vector y (len Rows), returning a vector of
// length Cols. Used for input gradients.
func (m Mat) MulVecT(y []float64) []float64 {
	return m.MulVecTInto(y, make([]float64, m.Cols))
}

// MulVecTInto is the allocation-free MulVecT: it overwrites dst (len Cols)
// with m^T * y and returns dst. It is the one-row product y^T * m, so it
// runs on MatMul's kernel: the non-zero y[i] are gathered four at a time
// in ascending order and each group is folded into dst[j] with one load
// and one store. Every dst[j] is still 0 + y[i0]*r[i0][j] + ... over the
// non-zero y[i] in row order, and a zero y[i] is skipped, never
// multiplied: 0*Inf would be NaN. Pinned by TestMulVecTIntoBitIdentical.
func (m Mat) MulVecTInto(y, dst []float64) []float64 {
	if len(y) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecT dimension mismatch: %dx%d by %d", m.Rows, m.Cols, len(y)))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("nn: MulVecTInto destination has %d cols, want %d", len(dst), m.Cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	mulRowsInto(Mat{Rows: 1, Cols: len(dst), Data: dst}, y, 0, 1, m)
	return dst
}

// rowOf returns row i resliced to len(like), which lets the compiler drop
// the bounds checks of a loop over like. The row's capacity ends with the
// row, so a like longer than Cols panics instead of reading the next row.
func (m Mat) rowOf(i int, like []float64) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols][:len(like)]
}

// AddOuter accumulates the outer product y x^T into m (Rows = len(y),
// Cols = len(x)). Used for weight gradients.
func (m Mat) AddOuter(y, x []float64) { AddOuterInto(m, y, x) }

// AddOuterInto accumulates the outer product y x^T into dst (Rows = len(y),
// Cols = len(x)). It is the explicit-destination form of AddOuter.
//
// Four rows with a non-zero y[i] are updated per pass over one shared load
// of x[j]; each element still takes exactly one multiply and one add, and
// a row whose y[i] is zero is skipped, so a -0 in it stays -0.
func AddOuterInto(dst Mat, y, x []float64) {
	if len(y) != dst.Rows || len(x) != dst.Cols {
		panic(fmt.Sprintf("nn: AddOuter dimension mismatch: %dx%d by %dx%d", dst.Rows, dst.Cols, len(y), len(x)))
	}
	var rows [4]int
	g := 0
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		rows[g] = i
		if g++; g < 4 {
			continue
		}
		g = 0
		r0, r1, r2, r3 := dst.rowOf(rows[0], x), dst.rowOf(rows[1], x), dst.rowOf(rows[2], x), dst.rowOf(rows[3], x)
		y0, y1, y2, y3 := y[rows[0]], y[rows[1]], y[rows[2]], y[rows[3]]
		for j, xj := range x {
			r0[j] += y0 * xj
			r1[j] += y1 * xj
			r2[j] += y2 * xj
			r3[j] += y3 * xj
		}
	}
	for _, i := range rows[:g] {
		yi := y[i]
		row := dst.rowOf(i, x)
		for j, xj := range x {
			row[j] += yi * xj
		}
	}
}

// The three matrix products share MulVecTInto's contract: every output
// element is 0 + t0 + t1 + ... in index order of the inner dimension, one
// multiply then one add (no explicit fused multiply-add), and a term whose
// left-hand factor is zero is skipped, never multiplied. TFT's attention
// runs on them, so a causal weight matrix's zero upper triangle costs
// nothing. TestMatMulBitIdentical pins them bit for bit against the
// one-row loop on explicit transposes; only the payload a NaN + NaN sum
// keeps is left to the compiler, in the one-row loop as much as here.

// MatMul returns a*b.
func MatMul(a, b Mat) Mat {
	out := NewMat(a.Rows, b.Cols)
	matMulInto(out, a, b)
	return out
}

// matMulInto writes a*b into out, which must be zeroed.
func matMulInto(out, a, b Mat) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMul dimension mismatch: %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mulRowsInto(out, a.Data, a.Cols, 1, b)
}

// MatMulAT returns a^T*b without building the transpose.
func MatMulAT(a, b Mat) Mat {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: MatMulAT dimension mismatch: (%dx%d)^T by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Cols, b.Cols)
	mulRowsInto(out, a.Data, 1, a.Cols, b)
	return out
}

// mulRowsInto accumulates l*b into a zeroed out, where l is
// out.Rows x b.Rows and its element (i, k) is l[i*rs+k*cs]: a row-major a
// for MatMul, a read down a's columns for MatMulAT, the one row y for
// MulVecTInto. For each output row the non-zero l(i, k) are gathered four
// at a time in ascending k and folded into out[i][j] with one load and one
// store; the remainder keeps the one-row loop.
func mulRowsInto(out Mat, l []float64, rs, cs int, b Mat) {
	n := b.Cols
	var ks [4]int
	var ls [4]float64
	for i := 0; i < out.Rows; i++ {
		orow := out.Data[i*n : (i+1)*n]
		g := 0
		for k, p := 0, i*rs; k < b.Rows; k, p = k+1, p+cs {
			lv := l[p]
			if lv == 0 {
				continue
			}
			ks[g], ls[g] = k, lv
			if g++; g < 4 {
				continue
			}
			g = 0
			b0, b1, b2, b3 := b.rowOf(ks[0], orow), b.rowOf(ks[1], orow), b.rowOf(ks[2], orow), b.rowOf(ks[3], orow)
			l0, l1, l2, l3 := ls[0], ls[1], ls[2], ls[3]
			for j, o := range orow {
				o += l0 * b0[j]
				o += l1 * b1[j]
				o += l2 * b2[j]
				o += l3 * b3[j]
				orow[j] = o
			}
		}
		for t := 0; t < g; t++ {
			lv, brow := ls[t], b.rowOf(ks[t], orow)
			for j, bv := range brow {
				orow[j] += lv * bv
			}
		}
	}
}

// MatMulBT returns a*b^T without building the transpose. Each output
// element is a dot product of two rows; four output columns are computed
// per pass over a's row, each with its own accumulator, and a zero a[i][k]
// is skipped for all four.
func MatMulBT(a, b Mat) Mat {
	out := NewMat(a.Rows, b.Rows)
	matMulBTInto(out, a, b)
	return out
}

// matMulBTInto overwrites out with a*b^T.
func matMulBTInto(out, a, b Mat) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMulBT dimension mismatch: %dx%d by (%dx%d)^T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0, b1, b2, b3 := b.rowOf(j, arow), b.rowOf(j+1, arow), b.rowOf(j+2, arow), b.rowOf(j+3, arow)
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				if av == 0 {
					continue
				}
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.rowOf(j, arow)
			s := 0.0
			for k, av := range arow {
				if av == 0 {
					continue
				}
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// Param is a trainable tensor with its gradient accumulator. Grad is
// empty until a training pass needs it (ZeroGrads or a backward pass
// allocates it) and ReleaseGrads empties it again, so a model that only
// serves forecasts holds its weights and nothing else.
type Param struct {
	Name  string
	Value Mat
	Grad  Mat
}

// NewParam allocates a named parameter of the given shape with zero values
// and no gradient buffer.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: NewMat(rows, cols)}
}

// grad returns the gradient accumulator, allocating a zero one shaped like
// Value if the parameter has none. Every backward pass reaches Grad here.
func (p *Param) grad() *Mat {
	if p.Grad.Data == nil {
		p.Grad = NewMat(p.Value.Rows, p.Value.Cols)
	}
	return &p.Grad
}

// InitXavier fills the parameter with Glorot-uniform noise scaled by fan-in
// and fan-out.
func (p *Param) InitXavier(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(p.Value.Rows+p.Value.Cols))
	for i := range p.Value.Data {
		p.Value.Data[i] = (2*rng.Float64() - 1) * limit
	}
}

// Params is a collection of trainable parameters.
type Params []*Param

// ZeroGrads clears all gradient accumulators, allocating any that are
// missing.
func (ps Params) ZeroGrads() {
	for _, p := range ps {
		p.grad().Zero()
	}
}

// ReleaseGrads drops every gradient accumulator; the next ZeroGrads or
// backward pass allocates a zero one again.
func (ps Params) ReleaseGrads() {
	for _, p := range ps {
		p.Grad = Mat{}
	}
}

// GradNorm returns the global L2 norm of all gradients.
func (ps Params) GradNorm() float64 {
	ss := 0.0
	for _, p := range ps {
		for _, g := range p.Grad.Data {
			ss += g * g
		}
	}
	return math.Sqrt(ss)
}

// ClipGradNorm rescales gradients so their global norm does not exceed max.
// It returns the pre-clip norm.
func (ps Params) ClipGradNorm(max float64) float64 {
	norm := ps.GradNorm()
	if norm > max && norm > 0 {
		scale := max / norm
		for _, p := range ps {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return norm
}

// Count returns the total number of scalar parameters.
func (ps Params) Count() int {
	n := 0
	for _, p := range ps {
		n += len(p.Value.Data)
	}
	return n
}
