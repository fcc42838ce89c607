package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The training kernels' determinism contract, held here against the
// one-row loops they replaced: every output element is 0 + t₀ + t₁ + … in
// index order, one multiply then one add, and a zero multiplier is skipped,
// never multiplied. The skip is what keeps the bits of a -0 accumulator, of
// Inf·0 and of NaN, so the special values below are where a kernel that
// reorders, fuses or drops it goes wrong.

// mulVecTReference is the one-row loop MulVecTInto ran before it was
// blocked.
func mulVecTReference(m Mat, y, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		for j, v := range m.Row(i) {
			dst[j] += v * yi
		}
	}
}

// addOuterReference is the one-row loop AddOuterInto ran before it was
// blocked.
func addOuterReference(dst Mat, y, x []float64) {
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		row := dst.Row(i)
		for j, xj := range x {
			row[j] += yi * xj
		}
	}
}

// matMulReference is the one-row loop MatMul ran before it was blocked.
// With transposeOf it is also the reference for MatMulBT and MatMulAT,
// whose callers used to hand MatMul a transposed copy.
func matMulReference(a, b Mat) Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// transposeOf returns m^T as a new matrix.
func transposeOf(m Mat) Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// kernelSpecials are the values a kernel's bits are most likely to get
// wrong: signed zeros, subnormals, infinities, NaN and the largest finite
// magnitudes.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	1, -1,
}

// How an operand is filled: dense normals, one in three a special value,
// half zeros of either sign, all zeros, or lower-triangular normals (the
// causal attention mask's shape).
type fillMode int

const (
	fillDense fillMode = iota
	fillSpecials
	fillSparse
	fillZero
	fillCausal
)

var fillModes = []fillMode{fillDense, fillSpecials, fillSparse, fillZero, fillCausal}

func (f fillMode) String() string {
	return [...]string{"dense", "specials", "sparse", "zero", "causal"}[f]
}

// fill writes m's elements under mode f; a vector is a one-row matrix.
func (f fillMode) fill(rng *rand.Rand, m Mat) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := rng.NormFloat64()
			switch {
			case f == fillZero, f == fillCausal && j > i:
				v = 0
			case f == fillSpecials && rng.Intn(3) == 0:
				v = kernelSpecials[rng.Intn(len(kernelSpecials))]
			case f == fillSparse && rng.Intn(2) == 0:
				v = kernelSpecials[rng.Intn(2)]
			}
			m.Set(i, j, v)
		}
	}
}

func (f fillMode) vec(rng *rand.Rand, n int) []float64 {
	if f == fillCausal {
		f = fillSparse
	}
	v := NewMat(1, n)
	f.fill(rng, v)
	return v.Data
}

// sameBits fails the test at the first element whose bits differ. Two NaNs
// match whatever their sign and payload: when both addends of a sum are
// NaN, the hardware keeps the payload of the operand that sits in the
// destination register, and Go leaves that choice to register allocation
// (one source line compiles to either order, even within one loop body),
// so no Go kernel, the one-row loop included, can pin it. A NaN against a
// number, or a zero against a zero of the other sign, still fails.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// Shapes: the blocked dimension runs 0–9 and 128, so every remainder of a
// four-way block shows up, against 0, 1, 5, 32 and 33 for the other one.
var (
	blockedDims = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 128}
	otherDims   = []int{0, 1, 5, 32, 33}
)

func TestMulVecTIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, r := range blockedDims {
		for _, c := range otherDims {
			for _, mode := range fillModes {
				m := NewMat(r, c)
				mode.fill(rng, m)
				y := mode.vec(rng, r)
				want := make([]float64, c)
				got := make([]float64, c)
				for i := range got {
					got[i] = 99 // must be fully overwritten
				}
				mulVecTReference(m, y, want)
				m.MulVecTInto(y, got)
				sameBits(t, fmt.Sprintf("%dx%d %v", r, c, mode), got, want)
			}
		}
	}
	// A zero multiplier beside Inf and NaN rows, inside a block of four
	// and in the remainder: multiplied instead of skipped, it turns a
	// column into NaN.
	m := NewMat(9, 3)
	for i := range m.Data {
		m.Data[i] = float64(i%7) - 3.5
	}
	for j := 0; j < 3; j++ {
		m.Set(0, j, math.Inf(1))
		m.Set(2, j, math.NaN())
		m.Set(6, j, math.Inf(-1))
	}
	y := []float64{0, 1, 0, 2, 3, 4, math.Copysign(0, -1), 5, 6}
	want, got := make([]float64, 3), make([]float64, 3)
	mulVecTReference(m, y, want)
	m.MulVecTInto(y, got)
	sameBits(t, "zero beside Inf/NaN rows", got, want)
}

func TestAddOuterIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, r := range blockedDims {
		for _, c := range otherDims {
			for _, mode := range fillModes {
				dst := NewMat(r, c)
				mode.fill(rng, dst)
				y := mode.vec(rng, r)
				x := mode.vec(rng, c)
				want := dst.Clone()
				addOuterReference(want, y, x)
				AddOuterInto(dst, y, x)
				sameBits(t, fmt.Sprintf("%dx%d %v", r, c, mode), dst.Data, want.Data)
			}
		}
	}
	// A -0 accumulator under a zero multiplier stays -0; -0 + 0·x would
	// be +0. Beside it, a zero multiplier against an Inf and a NaN.
	negZero := math.Copysign(0, -1)
	dst := NewMat(6, 3)
	for i := range dst.Data {
		dst.Data[i] = negZero
	}
	y := []float64{0, 2, 0, 3, 0, 4}
	x := []float64{1, math.Inf(1), math.NaN()}
	want := dst.Clone()
	addOuterReference(want, y, x)
	AddOuterInto(dst, y, x)
	sameBits(t, "-0 accumulator, zero beside Inf/NaN", dst.Data, want.Data)
}

// TestMatMulBitIdentical covers the three matrix products: a·b, a·bᵀ and
// aᵀ·b, against the reference on explicit transposes. The inner dimension
// and the output columns both run over every block remainder.
func TestMatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range otherDims {
		for _, k := range blockedDims {
			for _, n := range blockedDims {
				for _, mode := range fillModes {
					label := fmt.Sprintf("m=%d k=%d n=%d %v", m, k, n, mode)
					a := NewMat(m, k)
					b := NewMat(k, n)
					mode.fill(rng, a)
					mode.fill(rng, b)
					sameBits(t, "MatMul "+label, MatMul(a, b).Data, matMulReference(a, b).Data)

					bt := NewMat(n, k)
					mode.fill(rng, bt)
					sameBits(t, "MatMulBT "+label, MatMulBT(a, bt).Data, matMulReference(a, transposeOf(bt)).Data)

					at := NewMat(k, m)
					mode.fill(rng, at)
					sameBits(t, "MatMulAT "+label, MatMulAT(at, b).Data, matMulReference(transposeOf(at), b).Data)
				}
			}
		}
	}
	// Zero multipliers beside Inf and NaN in the other operand, inside a
	// block of four and in the remainder.
	a := Mat{Rows: 2, Cols: 6, Data: []float64{
		0, 1, 2, 0, 3, 4,
		5, 0, 0, 6, 0, 7,
	}}
	b := NewMat(6, 5)
	for i := range b.Data {
		b.Data[i] = float64(i%5) + 0.25
	}
	for j := 0; j < 5; j++ {
		b.Set(0, j, math.Inf(1))
		b.Set(2, j, math.NaN())
		b.Set(4, j, math.Inf(-1))
	}
	sameBits(t, "MatMul zero beside Inf/NaN", MatMul(a, b).Data, matMulReference(a, b).Data)
	sameBits(t, "MatMulBT zero beside Inf/NaN", MatMulBT(a, transposeOf(b)).Data, matMulReference(a, b).Data)
	sameBits(t, "MatMulAT zero beside Inf/NaN", MatMulAT(transposeOf(a), b).Data, matMulReference(a, b).Data)
}

// fuzzValues deals operand values out of the fuzzer's bytes, cycling
// through them (all zeros when there are none). A byte below
// len(kernelSpecials) names that special value; any other byte b becomes
// int8(b)/3, a fraction that rounds.
type fuzzValues struct {
	raw []byte
	pos int
}

func (f *fuzzValues) next() float64 {
	if len(f.raw) == 0 {
		return 0
	}
	b := f.raw[f.pos%len(f.raw)]
	f.pos++
	if int(b) < len(kernelSpecials) {
		return kernelSpecials[b]
	}
	return float64(int8(b)) / 3
}

func (f *fuzzValues) mat(rows, cols int) Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = f.next()
	}
	return m
}

// FuzzTrainingKernels runs MulVecTInto, AddOuterInto, MatMul, MatMulBT and
// MatMulAT on fuzzer-chosen shapes (each dimension 0–12) and values, and
// holds every output to the one-row references bit for bit (NaN payloads
// aside, see sameBits). The seeds put
// zero multipliers beside Inf and NaN and over -0 accumulators, in blocks
// of four and in remainders, so a kernel that stops skipping a zero fails
// one of them.
func FuzzTrainingKernels(f *testing.F) {
	// Bytes: 0 → +0, 1 → -0, 2 → +Inf, 3 → -Inf, 4 → NaN, 10 → 1.
	f.Add(uint8(5), uint8(5), uint8(5), []byte{0, 2, 10, 4, 30, 0, 3, 200})
	f.Add(uint8(9), uint8(3), uint8(6), []byte{2, 0, 4, 1, 60})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0, 2})
	f.Add(uint8(4), uint8(8), uint8(4), []byte{1, 0, 2, 10})
	f.Add(uint8(7), uint8(6), uint8(9), []byte{0, 4, 0, 90, 10, 3, 1})
	f.Add(uint8(12), uint8(12), uint8(12), []byte{})
	f.Fuzz(func(t *testing.T, m, k, n uint8, raw []byte) {
		dm, dk, dn := int(m%13), int(k%13), int(n%13)
		vals := &fuzzValues{raw: raw}

		a := vals.mat(dm, dk)
		y := vals.mat(1, dm).Data
		want, got := make([]float64, dk), make([]float64, dk)
		mulVecTReference(a, y, want)
		a.MulVecTInto(y, got)
		sameBits(t, "MulVecTInto", got, want)

		acc := vals.mat(dm, dk)
		x := vals.mat(1, dk).Data
		wantAcc := acc.Clone()
		addOuterReference(wantAcc, y, x)
		AddOuterInto(acc, y, x)
		sameBits(t, "AddOuterInto", acc.Data, wantAcc.Data)

		b := vals.mat(dk, dn)
		sameBits(t, "MatMul", MatMul(a, b).Data, matMulReference(a, b).Data)
		bt := vals.mat(dn, dk)
		sameBits(t, "MatMulBT", MatMulBT(a, bt).Data, matMulReference(a, transposeOf(bt)).Data)
		at := vals.mat(dk, dm)
		sameBits(t, "MatMulAT", MatMulAT(at, b).Data, matMulReference(transposeOf(at), b).Data)
	})
}

// TestMulVecsIntoBitIdentical holds the batched matvec to MulVecInto, one
// vector at a time: every Rows%4 remainder, odd and even vector counts
// (an odd last vector takes MulVecInto itself) and the special values.
// Nothing is skipped for a zero term, so 0·Inf is NaN in both. Where the
// CPU has the SIMD kernels, mulVecsPacked runs the same grid: 8-vector
// panel passes, the one to seven vectors left and the Rows%4 tail rows.
func TestMulVecsIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	filled := func(rows, cols int) Mat {
		m := NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = 99 // must be fully overwritten
		}
		return m
	}
	for _, r := range blockedDims {
		for _, c := range otherDims {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
				for _, mode := range fillModes {
					m, x := NewMat(r, c), NewMat(n, c)
					mode.fill(rng, m)
					mode.fill(rng, x)
					got, packed := filled(n, r), filled(n, r)
					m.mulVecsInto(x, got)
					if useSIMD {
						m.mulVecsPacked(m.packPanels(nil), x, packed)
					}
					for v := 0; v < n; v++ {
						label := fmt.Sprintf("%dx%d by %d vectors %v, vector %d", r, c, n, mode, v)
						want := m.MulVecInto(x.Row(v), make([]float64, r))
						sameBits(t, label, got.Row(v), want)
						if useSIMD {
							sameBits(t, label+" packed", packed.Row(v), want)
						}
					}
				}
			}
		}
	}
	// A zero beside Inf and NaN in both vectors of a pair, and ±0 terms
	// whose sum is -0 only if one were skipped.
	negZero := math.Copysign(0, -1)
	m := NewMat(5, 4)
	for i := range m.Data {
		m.Data[i] = float64(i%3) - 1
	}
	m.Set(0, 1, math.Inf(1))
	m.Set(2, 2, math.NaN())
	m.Set(4, 3, math.Inf(-1))
	x := Mat{Rows: 3, Cols: 4, Data: []float64{
		0, 0, 1, negZero,
		negZero, 2, 0, 0,
		math.Inf(-1), negZero, math.NaN(), 3,
	}}
	got := NewMat(3, 5)
	m.mulVecsInto(x, got)
	for v := 0; v < 3; v++ {
		sameBits(t, fmt.Sprintf("specials, vector %d", v), got.Row(v), m.MulVecInto(x.Row(v), make([]float64, 5)))
	}
}

// TestStepBatchMatchesStepScratch steps a batch of sequences in lockstep
// beside each sequence stepped alone: hidden and cell states must agree
// bit for bit at every step, for odd and even batch sizes, and the head
// on top of them through ForwardBatch against ForwardScratch. It runs on
// the SIMD kernels where the CPU has them and on the Go kernels, at a
// hidden size of 12 and of 7 (whose n·7 tanh(c) lanes leave a len%4
// tail), and on a cell whose pre-activations are its inputs, drawn from
// every branch of sigmoid and tanh.
func TestStepBatchMatchesStepScratch(t *testing.T) {
	for _, simd := range []bool{true, false} {
		if simd && !useSIMD {
			continue
		}
		run := func(t *testing.T) {
			rng := rand.New(rand.NewSource(25))
			normal := stepDraws{h: rng.NormFloat64, c: rng.NormFloat64, x: rng.NormFloat64}
			for _, hidden := range []int{12, 7} {
				cell := NewLSTMCell("c", 5, hidden, rng)
				stepBatchAgainstAlone(t, cell, NewDense("h", hidden, 3, rng), normal)
			}
			// Zero weights: every pre-activation is its bias, redrawn from
			// gateBranchValues each step.
			cell := NewLSTMCell("c", 5, 7, rng)
			cell.Wx.Value.Zero()
			cell.Wh.Value.Zero()
			branch := func() float64 { return gateBranchValues[rng.Intn(len(gateBranchValues))] }
			stepBatchAgainstAlone(t, cell, NewDense("h", 7, 3, rng), stepDraws{h: rng.NormFloat64, c: branch, x: rng.NormFloat64, bias: branch})
		}
		if simd {
			t.Run("simd", run)
		} else {
			t.Run("go", func(t *testing.T) { goKernels(func() { run(t) }) })
		}
	}
}

// stepDraws draws TestStepBatchMatchesStepScratch's values: h and c the
// starting states, x every step's inputs. With bias set the bias and the
// starting states are redrawn every step (a NaN or Inf gate would
// otherwise poison every later step).
type stepDraws struct {
	h, c, x, bias func() float64
}

// stepBatchAgainstAlone is TestStepBatchMatchesStepScratch's check for one
// cell.
func stepBatchAgainstAlone(t *testing.T, cell *LSTMCell, head *Dense, d stepDraws) {
	t.Helper()
	panels := cell.PackPanels(nil)
	for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 12} {
		s := NewScratch()
		batch := cell.NewLSTMBatch(s, n)
		x, y := s.Mat(n, cell.InSize), s.Mat(n, head.Out)
		alone := make([]LSTMState, n)
		for b := range alone {
			alone[b] = cell.NewLSTMState()
		}
		for step := 0; step < 6; step++ {
			if step == 0 || d.bias != nil {
				for b := range alone {
					for j := range alone[b].H { // distinct starting states
						alone[b].H[j], alone[b].C[j] = d.h(), d.c()
					}
					copy(batch.H.Row(b), alone[b].H)
					copy(batch.C.Row(b), alone[b].C)
				}
			}
			if d.bias != nil {
				for i := range cell.B.Value.Data {
					cell.B.Value.Data[i] = d.bias()
				}
			}
			for i := range x.Data {
				x.Data[i] = d.x()
			}
			cell.StepBatch(batch, x, panels)
			head.ForwardBatch(batch.H, y)
			for b := range alone {
				alone[b], _ = cell.StepScratch(nil, x.Row(b), alone[b])
				out, _ := head.ForwardScratch(nil, alone[b].H)
				label := fmt.Sprintf("hidden %d n=%d step %d sequence %d", cell.Hidden, n, step, b)
				sameBits(t, label+" H", batch.H.Row(b), alone[b].H)
				sameBits(t, label+" C", batch.C.Row(b), alone[b].C)
				sameBits(t, label+" head", y.Row(b), out)
			}
		}
	}
}

// TestAttentionForwardScratchMatchesForward pins the arena-backed
// attention forward to the allocating one, and to zero heap allocations
// once its arena has grown.
func TestAttentionForwardScratchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := NewAttention("a", 6, true, rng)
	x := NewMat(9, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want, _ := a.Forward(x)
	s := NewScratch()
	run := func() {
		s.Reset()
		got, _ := a.ForwardScratch(s, x)
		sameBits(t, "attention output", got.Data, want.Data)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("ForwardScratch allocates %v times in steady state, want 0", allocs)
	}
}
