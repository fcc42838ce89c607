package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// goKernels runs fn with StepBatch's SIMD kernels off, as on a CPU
// without them: PackPanels packs nothing and the gates take math.Exp.
func goKernels(fn func()) {
	defer func(on bool) { useSIMD = on }(useSIMD)
	useSIMD = false
	fn()
}

// gateBranchValues reach every branch of sigmoid and math.Tanh: |x| below
// 0.625, from 0.625 to 44.01, beyond it, ±0, NaN, ±Inf, subnormal, and
// beyond 708, where an exp lane is refused.
var gateBranchValues = []float64{
	0.3, -0.3, 0.624, -0.625, 0.625, 1, -2.5, 20, -44.01, 44.02, -60,
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1060,
	708.5, -709.5, 1000, -1e300,
}

// The two ways math.Exp's amd64 assembly may compute an in-range x,
// written out in Go: with FMA (what expLanes replays) and without.
const (
	refLog2e = 1.4426950408889634073599246810018920
	refLn2u  = 0.69314718055966295651160180568695068359375
	refLn2l  = 0.28235290563031577122588448175013436025525412068e-12
)

var refTaylor = []float64{ // from the x^8 term down
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
}

func expScale(k float64) float64 { return math.Float64frombits(uint64(int64(k)+1023) << 52) }

func expFMARef(x float64) float64 {
	k := math.RoundToEven(refLog2e * x)
	r := math.FMA(-k, refLn2u, x)
	r = math.FMA(-k, refLn2l, r) * 0.0625
	p := refTaylor[0]
	for _, c := range refTaylor[1:] {
		p = math.FMA(r, p, c)
	}
	y := r * p
	for i := 0; i < 3; i++ {
		y *= y + 2
	}
	return math.FMA(y+2, y, 1) * expScale(k)
}

func expPlainRef(x float64) float64 {
	k := math.RoundToEven(refLog2e * x)
	r := (x - k*refLn2u - k*refLn2l) * 0.0625
	p := refTaylor[0]
	for _, c := range refTaylor[1:] {
		p = p*r + c
	}
	y := r * p
	for i := 0; i < 4; i++ {
		y *= y + 2
	}
	return (y + 1) * expScale(k)
}

// TestExpProbeSplitsTheSequences: the probe that gates the SIMD kernels
// must tell math.Exp's two sequences apart, expProbeFMA must be the FMA
// one's result, math.Exp must give one of them, and on amd64 the kernels
// must be on exactly when it gives the FMA one.
func TestExpProbeSplitsTheSequences(t *testing.T) {
	fma, plain, got := expFMARef(expProbe), expPlainRef(expProbe), math.Exp(expProbe)
	if fma == plain {
		t.Fatalf("probe %v: both sequences give %v", expProbe, fma)
	}
	if fma != expProbeFMA {
		t.Fatalf("the FMA sequence gives %v on the probe, not expProbeFMA %v", fma, expProbeFMA)
	}
	if got != fma && got != plain {
		t.Fatalf("math.Exp(%v) = %v, neither the FMA sequence's %v nor the plain one's %v", expProbe, got, fma, plain)
	}
	if runtime.GOARCH == "amd64" && useSIMD != (got == fma) {
		t.Fatalf("SIMD kernels %v, but math.Exp(%v) = %v", useSIMD, expProbe, got)
	}
	t.Logf("SIMD kernels %v, math.Exp takes the %s sequence",
		useSIMD, map[bool]string{true: "FMA", false: "plain"}[got == fma])
}

// TestExpLanesMatchMathExp holds expLanes to math.Exp bit for bit on 10⁷
// inputs across [-708, 709], most of them where the gates' arguments lie,
// and checks that it refuses a group holding a lane outside that range
// or a NaN. expInPlace must match math.Exp everywhere: subnormal results,
// the overflow edge, ±Inf and NaN go through its fallback.
func TestExpLanesMatchMathExp(t *testing.T) {
	edges := []float64{-708, 709, -708.39, -708.4, -709, -740, -745.13, -745.14, -746, 0x1p-1074, -0x1p-1074,
		709.43, 709.5, 709.78, 709.782712893384, 709.7827128933841, 709.79, 710, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 64; i++ {
		edges = append(edges, -745.13+float64(i)*(745.13-708)/64, 709.43+float64(i)*(709.79-709.43)/64)
	}
	x := make([]float64, len(edges)+3) // a len%4 tail
	copy(x, edges)
	in := append([]float64(nil), x...)
	expInPlace(x)
	for i, v := range in {
		if want := math.Exp(v); math.Float64bits(x[i]) != math.Float64bits(want) {
			t.Fatalf("expInPlace(%v) = %v (%#x), want %v (%#x)", v, x[i], math.Float64bits(x[i]), want, math.Float64bits(want))
		}
	}
	if !useSIMD {
		t.Skip("SIMD kernels off; expInPlace is math.Exp")
	}

	for _, bad := range []float64{-708.0000000000001, 709.0000000000001, 710, -1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		for lane := 0; lane < 4; lane++ {
			group := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			group[4+lane] = bad
			want := append([]float64(nil), group...)
			if done := expLanes(group); done != 4 {
				t.Fatalf("%v in lane %d: expLanes did %d lanes, want 4 (the group before)", bad, lane, done)
			}
			if math.Float64bits(group[0]) != math.Float64bits(math.Exp(1)) {
				t.Fatalf("lane 0 is %v, want e", group[0])
			}
			for i, v := range group[4:] {
				if math.Float64bits(v) != math.Float64bits(want[4+i]) {
					t.Fatalf("%v in lane %d: refused group changed lane %d to %v", bad, lane, i, v)
				}
			}
		}
	}

	// Four in five inputs fall where the gates' arguments do (|x| < 90),
	// the rest anywhere in range.
	const total, batch = 10_000_000, 1024
	rng := rand.New(rand.NewSource(27))
	buf, src := make([]float64, batch), make([]float64, batch)
	for done := 0; done < total; done += batch {
		for i := range src {
			if i%5 == 0 {
				src[i] = -708 + rng.Float64()*1417
			} else {
				src[i] = (rng.Float64()*2 - 1) * 90
			}
		}
		copy(buf, src)
		if n := expLanes(buf); n != batch {
			t.Fatalf("expLanes refused an in-range group at %d (%v)", n, src[n:n+4])
		}
		for i, v := range src {
			if want := math.Exp(v); math.Float64bits(buf[i]) != math.Float64bits(want) {
				t.Fatalf("expLanes(%v) = %v (%#x), want %v (%#x)", v, buf[i], math.Float64bits(buf[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestGateHalvesMatchSigmoidTanh: each gate split around its exp gives
// sigmoid's and math.Tanh's bits on every branch.
func TestGateHalvesMatchSigmoidTanh(t *testing.T) {
	vals := append([]float64{44.014845965556525, 44.01484596555653, -0.6249999999999999}, gateBranchValues...)
	for _, v := range vals {
		if got, want := sigmoidFrom(v, math.Exp(sigmoidArg(v))), sigmoid(v); !sameFloat(got, want) {
			t.Errorf("sigmoid halves at %v: %v, want %v", v, got, want)
		}
		if got, want := tanhFrom(v, math.Exp(tanhArg(v))), math.Tanh(v); !sameFloat(got, want) {
			t.Errorf("tanh halves at %v: %v, want %v", v, got, want)
		}
	}
}

// sameFloat is sameBits for one value: any NaN matches any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzStepBatchLanes steps fuzzer-chosen batches (1–12 sequences, hidden
// size 1–9, 1–6 inputs) from fuzzer-chosen states, inputs and weights,
// scaled so that the pre-activations span every gate branch, on the SIMD
// kernels and on the Go kernels: H and C must agree bit for bit (NaN
// payloads aside, see sameBits).
func FuzzStepBatchLanes(f *testing.F) {
	// Bytes: 0 → +0, 1 → -0, 2 → +Inf, 3 → -Inf, 4 → NaN, 10 → 1.
	f.Add(uint8(8), uint8(7), uint8(4), uint8(0), []byte{10, 60, 200, 1, 90, 130, 0, 250})
	f.Add(uint8(12), uint8(8), uint8(5), uint8(1), []byte{30, 100, 160, 220})
	f.Add(uint8(5), uint8(3), uint8(1), uint8(2), []byte{2, 3, 4, 1, 0, 127, 128})
	f.Add(uint8(4), uint8(1), uint8(0), uint8(0), []byte{127, 129})
	f.Fuzz(func(t *testing.T, n, hidden, in, scale uint8, raw []byte) {
		if !useSIMD {
			t.Skip("no SIMD kernels on this CPU")
		}
		bn, h, nin := 1+int(n%12), 1+int(hidden%9), 1+int(in%6)
		vals := &fuzzValues{raw: raw}
		k := [...]float64{1, 1.0 / 16, 1.0 / 1024}[scale%3]
		param := func(rows, cols int) *Param {
			m := vals.mat(rows, cols)
			for i := range m.Data {
				m.Data[i] *= k
			}
			return &Param{Value: m}
		}
		cell := &LSTMCell{InSize: nin, Hidden: h, Wx: param(4*h, nin), Wh: param(4*h, h), B: param(4*h, 1)}
		h0, c0, x := vals.mat(bn, h), vals.mat(bn, h), vals.mat(bn, nin)
		step := func() LSTMBatch {
			b := cell.NewLSTMBatch(nil, bn)
			copy(b.H.Data, h0.Data)
			copy(b.C.Data, c0.Data)
			cell.StepBatch(b, x, cell.PackPanels(nil))
			return b
		}
		got := step()
		var want LSTMBatch
		goKernels(func() { want = step() })
		sameBits(t, "H", got.H.Data, want.H.Data)
		sameBits(t, "C", got.C.Data, want.C.Data)
	})
}

// BenchmarkMulVecsPacked times one sampling block's recurrent product, Wh
// (128x32) by eight hidden states, on the Go kernel and on the panels.
func BenchmarkMulVecsPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	m, x, dst := NewMat(128, 32), NewMat(8, 32), NewMat(8, 128)
	for _, v := range [][]float64{m.Data, x.Data} {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.mulVecsInto(x, dst)
		}
	})
	b.Run("simd", func(b *testing.B) {
		if !useSIMD {
			b.Skip("no SIMD kernels on this CPU")
		}
		panels := m.packPanels(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.mulVecsPacked(panels, x, dst)
		}
	})
}

// BenchmarkGateLanes times the gates of one sampling block, eight rows of
// 32 cells, on the Go kernels (one math.Exp at a time) and in lanes. Each
// op also restores the pre-activations the gates consume (two 1 024-float
// copies).
func BenchmarkGateLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	cell := NewLSTMCell("c", 5, 32, rng)
	batch := cell.NewLSTMBatch(nil, 8)
	pre, preH, c := NewMat(8, 128), NewMat(8, 128), NewMat(8, 32)
	for _, v := range [][]float64{pre.Data, preH.Data, c.Data} {
		for i := range v {
			v[i] = rng.NormFloat64() * 2
		}
	}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(batch.pre.Data, pre.Data)
			copy(batch.preH.Data, preH.Data)
			copy(batch.C.Data, c.Data)
			cell.gates(batch, 8)
		}
	}
	b.Run("go", func(b *testing.B) { goKernels(func() { run(b) }) })
	b.Run("simd", func(b *testing.B) {
		if !useSIMD {
			b.Skip("no SIMD kernels on this CPU")
		}
		run(b)
	})
}
