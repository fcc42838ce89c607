package nn

import (
	"fmt"
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

// tanhHalfMaxLog is MAXLOG/2, beyond which math.Tanh is ±1.
const tanhHalfMaxLog = 0.5 * 8.8029691931113054295988e+01

// gateBranchValues reach every branch of sigmoid and math.Tanh: |x| below
// 0.625, from 0.625 to MAXLOG/2, beyond it, each edge and the floats
// either side of it, ±0, NaN, ±Inf, subnormal, and beyond 708, where a
// sigmoid's exp is refused.
var gateBranchValues = []float64{
	0.3, -0.3, 0.624, -0.625, 0.625, math.Nextafter(0.625, 0), -math.Nextafter(0.625, 1), 1, -2.5, 20, -44.01,
	tanhHalfMaxLog, -math.Nextafter(tanhHalfMaxLog, 0), math.Nextafter(tanhHalfMaxLog, 100), 44.02, -60,
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1060,
	708, -708, math.Nextafter(708, 1000), 708.5, -709.5, 1000, -1e300,
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

// TestGateRowMatchesSigmoidTanh fills rows of 3 and 6 cells (a partial
// group alone and after a whole one) with one branch value as every
// pre-activation and cell state: each gate must be sigmoid's or
// math.Tanh's bits, and c, tanh(c) and h the step's expressions on them.
// On the SIMD kernels gateLanes must take exactly the rows whose sigmoid
// exps it can: |x| at most 708.
func TestGateRowMatchesSigmoidTanh(t *testing.T) {
	run := func(t *testing.T) {
		for _, v := range gateBranchValues {
			for _, n := range []int{3, 6} {
				// pre v and preH, bias -0: v + (-0 + -0) is v, -0 too.
				pre, cPrev := make([]float64, 4*n), make([]float64, n)
				negZeros := func() []float64 {
					z := make([]float64, 4*n)
					for i := range z {
						z[i] = math.Copysign(0, -1)
					}
					return z
				}
				for i := range pre {
					pre[i] = v
				}
				for j := range cPrev {
					cPrev[j] = v
				}
				if useSIMD {
					row, out := append([]float64(nil), pre...), make([]float64, 3*n)
					ok := gateLanes(&row[0], &negZeros()[0], &negZeros()[0], &cPrev[0], &row[0], &out[0], &out[n], &out[2*n], n)
					if want := math.Abs(v) <= 708; ok != want {
						t.Errorf("gateLanes took the row of %v: %v, want %v", v, ok, want)
					}
				}
				c, tanhC, h := make([]float64, n), make([]float64, n), make([]float64, n)
				gates := make([]float64, 4*n)
				gateRow(pre, negZeros(), negZeros(), cPrev, gates, c, tanhC, h)
				s, g := sigmoid(v), math.Tanh(v)
				cw := s*v + s*g
				for j := 0; j < n; j++ {
					label := fmt.Sprintf("%v, %d cells, cell %d", v, n, j)
					for k, want := range []float64{s, s, g, s} {
						if got := gates[k*n+j]; !sameFloat(got, want) {
							t.Errorf("%s: gate %d is %v, want %v", label, k, got, want)
						}
					}
					if !sameFloat(c[j], cw) || !sameFloat(tanhC[j], math.Tanh(cw)) || !sameFloat(h[j], s*math.Tanh(cw)) {
						t.Errorf("%s: c, tanh(c), h = %v, %v, %v, want %v, %v, %v", label, c[j], tanhC[j], h[j], cw, math.Tanh(cw), s*math.Tanh(cw))
					}
				}
			}
		}
	}
	if useSIMD {
		t.Run("simd", run)
	}
	t.Run("go", func(t *testing.T) { goKernels(func() { run(t) }) })
}

// TestGateLanesMatchGoRow holds gateLanes to gateRow's Go body bit for
// bit on 2·10⁵ random lanes, at 32 cells and at 7 (a partial group): a
// third of the pre-activations and cell states on math.Tanh's polynomial
// (|x| < 0.625), where a stray fused multiply-add changes one rounding in
// a few dozen, a third across the exp forms, the rest anywhere to ±60.
func TestGateLanesMatchGoRow(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels off")
	}
	rng := rand.New(rand.NewSource(30))
	draw := func(v []float64) []float64 {
		for i := range v {
			switch i % 3 {
			case 0:
				v[i] = (rng.Float64()*2 - 1) * 0.625
			case 1:
				v[i] = (rng.Float64()*2 - 1) * 8
			default:
				v[i] = (rng.Float64()*2 - 1) * 60
			}
		}
		return v
	}
	for lanes := 0; lanes < 200_000; {
		for _, n := range []int{32, 7} {
			pre, preH, bias, cPrev := draw(make([]float64, 4*n)), draw(make([]float64, 4*n)), draw(make([]float64, 4*n)), draw(make([]float64, n))
			for i := range preH { // keep pre + (preH + bias) near pre
				preH[i], bias[i] = preH[i]/64, bias[i]/64
			}
			rows := [2][4][]float64{}
			for k, simd := range []bool{true, false} {
				r := [4][]float64{make([]float64, 4*n), make([]float64, n), make([]float64, n), make([]float64, n)}
				row := func() {
					gateRow(append([]float64(nil), pre...), append([]float64(nil), preH...), bias, cPrev, r[0], r[1], r[2], r[3])
				}
				if simd {
					row()
				} else {
					goKernels(row)
				}
				rows[k] = r
			}
			for i, name := range []string{"gates", "c", "tanh(c)", "h"} {
				sameBits(t, fmt.Sprintf("%d cells: %s", n, name), rows[0][i], rows[1][i])
			}
			lanes += 5 * n
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

// FuzzGateRow runs one sequence's gates, hidden size 1–11, on fuzzer-chosen
// pre-activations, bias and cell state: a byte below len(gateBranchValues)
// picks a branch value, any other is int8(b)/7 (a full mantissa). gateLanes must take
// exactly the rows whose sigmoid gates all lie within ±708 and leave every
// other row untouched, and gateRow on the SIMD kernels, with c and tanhC
// their own or aliasing cPrev and h as StepBatch has them, must give the Go
// kernels' bits (NaN payloads aside, see sameBits).
func FuzzGateRow(f *testing.F) {
	// A row of n cells with pre given gate by gate, preH and bias -0 (so
	// the pre-activations are those values), then the cell state.
	seed := func(pre, cPrev []byte) {
		n := len(cPrev)
		raw := append([]byte(nil), pre...)
		for i := 0; i < 8*n; i++ {
			raw = append(raw, 17)
		}
		f.Add(uint8(n-1), append(raw, cPrev...))
	}
	// ±0.625 and MAXLOG/2 with their neighbours, ±0 and a subnormal, then
	// ±Inf, NaN and ±MAXLOG/2 beyond as g and as c.
	seed([]byte{4, 5, 6, 16, 17, 21, 11, 12, 13, 7, 8, 9}, []byte{14, 15, 19})
	seed([]byte{0, 1, 2, 3, 10, 22, 23, 14, 15, 11, 18, 19, 20, 16, 17, 21, 5, 6, 7, 8}, []byte{18, 19, 20, 0, 9})
	seed([]byte{25, 0, 1, 2, 3, 4, 5, 6}, []byte{7, 8})                                     // i above 708: refused
	seed([]byte{1, 2, 3, 26}, []byte{9})                                                    // o below -708: refused
	seed([]byte{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 28}, []byte{1, 2, 3, 4}) // NaN-free, one whole group
	f.Add(uint8(6), []byte{30, 100, 160, 220, 250, 7, 131, 200, 44, 90, 255, 128})
	f.Fuzz(func(t *testing.T, hidden uint8, raw []byte) {
		if !useSIMD {
			t.Skip("no SIMD kernels on this CPU")
		}
		n := 1 + int(hidden%11)
		pos := 0
		vec := func(l int) []float64 {
			v := make([]float64, l)
			for i := range v {
				if len(raw) > 0 {
					b := raw[pos%len(raw)]
					if v[i] = float64(int8(b)) / 7; int(b) < len(gateBranchValues) {
						v[i] = gateBranchValues[b]
					}
				}
				pos++
			}
			return v
		}
		pre, preH, bias, cPrev := vec(4*n), vec(4*n), vec(4*n), vec(n)
		takes := true
		for k := range 4 {
			for j := 0; j < n; j++ {
				i := k*n + j
				if p := pre[i] + (preH[i] + bias[i]); k != 2 && !(math.Abs(p) <= 708) {
					takes = false
				}
			}
		}
		// gateRow's outputs, on copies of the inputs it may overwrite.
		type out struct{ gates, c, tanhC, h []float64 }
		run := func(alias bool) out {
			p, ph := append([]float64(nil), pre...), append([]float64(nil), preH...)
			o := out{gates: make([]float64, 4*n), c: make([]float64, n), tanhC: make([]float64, n), h: make([]float64, n)}
			cp := cPrev
			if alias {
				o.gates, o.h = p, o.tanhC
				o.c = append([]float64(nil), cPrev...)
				cp = o.c
			}
			gateRow(p, ph, bias, cp, o.gates, o.c, o.tanhC, o.h)
			return o
		}
		var want out
		goKernels(func() { want = run(false) })
		for _, alias := range []bool{false, true} {
			got := run(alias)
			label := fmt.Sprintf("%d cells, aliased %v", n, alias)
			sameBits(t, label+" gates", got.gates, want.gates)
			sameBits(t, label+" c", got.c, want.c)
			sameBits(t, label+" h", got.h, want.h)
			if !alias {
				sameBits(t, label+" tanh(c)", got.tanhC, want.tanhC)
			}
		}

		row, rowH, outs := append([]float64(nil), pre...), append([]float64(nil), preH...), make([]float64, 3*n)
		if ok := gateLanes(&row[0], &rowH[0], &bias[0], &cPrev[0], &row[0], &outs[0], &outs[n], &outs[2*n], n); ok != takes {
			t.Fatalf("%d cells: gateLanes took the row: %v, want %v", n, ok, takes)
		} else if !ok {
			sameBits(t, "refused row's gates", row, pre)
			sameBits(t, "refused row's preH", rowH, preH)
			sameBits(t, "refused row's outputs", outs, make([]float64, 3*n))
		}
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
// 32 cells through gateRow, on the Go kernels (one math.Exp at a time)
// and on gateLanes. Each op also restores the products and cell states
// the gates overwrite (two 1 024-float copies and a 256-float one).
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
			for r := 0; r < 8; r++ {
				hr, cr := batch.H.Row(r), batch.C.Row(r)
				pr := batch.pre.Row(r)
				gateRow(pr, batch.preH.Row(r), cell.B.Value.Data, cr, pr, cr, hr, hr)
			}
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

// FuzzPanelLanes runs the product kernels on fuzzer-chosen shapes (rows
// 0–36, so up to nine panels, columns 0–12, 0–20 vectors) and values,
// zeros of either sign, NaN and ±Inf among them (see fuzzValues), against
// the Go loops: mulVecsPacked on the panels (panelMul8 and panelMul1), on
// every vector and on each one alone, against MulVecInto; project, x·wᵀ
// as mulRowsInto on wᵀ, against the one-row reference on an explicit
// transpose, whose zero multipliers are skipped; and the attention
// forward, causal or not, against the Go kernels (NaN payloads aside, see
// sameBits).
func FuzzPanelLanes(f *testing.F) {
	// Bytes: 0 → +0, 1 → -0, 2 → +Inf, 3 → -Inf, 4 → NaN, 10 → 1.
	f.Add(uint8(8), uint8(5), uint8(9), false, []byte{10, 60, 0, 1, 200, 90, 2, 130, 4, 250})
	f.Add(uint8(13), uint8(7), uint8(3), true, []byte{1, 0, 30, 100, 3, 160, 220})
	f.Add(uint8(4), uint8(1), uint8(1), true, []byte{2, 1, 127, 0})
	f.Add(uint8(12), uint8(12), uint8(12), false, []byte{})
	f.Add(uint8(36), uint8(4), uint8(20), true, []byte{90, 10, 1, 200, 30, 160, 0, 70, 4, 140})
	f.Fuzz(func(t *testing.T, rows, cols, vecs uint8, causal bool, raw []byte) {
		if !useSIMD {
			t.Skip("no SIMD kernels on this CPU")
		}
		r, c, n := int(rows%37), int(cols%13), int(vecs%21)
		vals := &fuzzValues{raw: raw}
		m, x := vals.mat(r, c), vals.mat(n, c)
		got := NewMat(n, r)
		m.mulVecsPacked(m.packPanels(nil), x, got)
		for v := 0; v < n; v++ {
			want := m.MulVecInto(x.Row(v), make([]float64, r))
			sameBits(t, fmt.Sprintf("mulVecsPacked vector %d", v), got.Row(v), want)
			one := make([]float64, r)
			m.mulVecsPacked(m.packPanels(nil), Mat{Rows: 1, Cols: c, Data: x.Row(v)}, Mat{Rows: 1, Cols: r, Data: one})
			sameBits(t, fmt.Sprintf("mulVecsPacked one vector %d", v), one, want)
		}

		out := NewMat(n, r)
		project(nil, out, x, m)
		sameBits(t, "project", out.Data, matMulReference(x, transposeOf(m)).Data)

		a := &Attention{Dim: c, Causal: causal,
			Wq: &Param{Value: vals.mat(c, c)}, Wk: &Param{Value: vals.mat(c, c)}, Wv: &Param{Value: vals.mat(c, c)}}
		attentionAgainstGo(t, fmt.Sprintf("attention of %d steps, dim %d", n, c), a, x)
	})
}

// FuzzMathLanes holds Sin, Log and Exp to math.Sin, math.Log and
// math.Exp bit for bit on five fuzzer-chosen values, each first folded
// into the kernel's domain (Sin's |x| below 1<<29, Log's |x|, Exp's x
// within ±709) and then as drawn: ten lanes, so a folded group runs on
// the kernel, the next mixes the two, and a two-lane tail follows. Seeds
// hold ±0, a subnormal, NaN, ±Inf, the domains' edges and octant bounds.
func FuzzMathLanes(f *testing.F) {
	f.Add(0.5, -1.25, 3.0, 100.0, 7.0)
	f.Add(math.Copysign(0, -1), 0x1p-1074, math.Inf(1), math.NaN(), -708.5)
	f.Add(float64(1<<29), math.Nextafter(1<<29, 0), math.Pi/4, 3*math.Pi/4, math.Sqrt2/2)
	f.Add(-709.0, 709.0, math.Inf(-1), 1e300, 0x1p-1022)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		raw := []float64{a, b, c, d, e}
		for _, k := range []struct {
			name  string
			entry func([]float64)
			f     func(float64) float64
			fold  func(float64) float64
		}{
			{"Sin", Sin, math.Sin, func(v float64) float64 { return math.Mod(v, 1<<29) }},
			{"Log", Log, math.Log, math.Abs},
			{"Exp", Exp, math.Exp, func(v float64) float64 { return math.Mod(v, 709) }},
		} {
			var xs []float64
			for _, v := range raw {
				xs = append(xs, k.fold(v))
			}
			xs = append(xs, raw...)
			got := append([]float64(nil), xs...)
			k.entry(got)
			for i, v := range xs {
				if want := k.f(v); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s lane %d of %v: %v (%#x), want %v (%#x)", k.name, i, xs, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
		}
	})
}
