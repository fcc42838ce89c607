package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The backward pass and the optimizer on the SIMD kernels (outer4Lanes
// under AddOuterInto, the transposed packs of BackwardSequenceScratch,
// dOut·Vᵀ as a fold, adamLanes) held to the Go kernels bit for bit (NaN
// payloads aside, see sameBits).

// backwardGradNames labels the outputs backwardOutputs and
// backwardStepwise return, in order.
var backwardGradNames = []string{"dxs", "dS0.H", "dS0.C", "Wx grad", "Wh grad", "b grad"}

// backwardOutputs runs BackwardSequenceScratch from zero gradients and
// returns dxs, dS0 and every parameter gradient.
func backwardOutputs(cell *LSTMCell, caches []*LSTMCache, dhs Mat, dFinal LSTMState) [][]float64 {
	cell.Params().ZeroGrads()
	dxs, dS0 := cell.BackwardSequenceScratch(NewScratch(), caches, dhs, dFinal)
	out := [][]float64{dxs.Data, dS0.H, dS0.C}
	for _, p := range cell.Params() {
		out = append(out, slices.Clone(p.Grad.Data))
	}
	return out
}

// backwardStepwise is the reference: the recurrence one
// StepBackwardScratch at a time on the Go kernels, which is the loop
// BackwardSequenceScratch ran before it was one body with its own packs.
func backwardStepwise(cell *LSTMCell, caches []*LSTMCache, dhs Mat, dFinal LSTMState) [][]float64 {
	var out [][]float64
	goKernels(func() {
		cell.Params().ZeroGrads()
		h := cell.Hidden
		dh, dc := make([]float64, h), make([]float64, h)
		copy(dh, dFinal.H)
		copy(dc, dFinal.C)
		dxs := NewMat(len(caches), cell.InSize)
		for t := len(caches) - 1; t >= 0; t-- {
			if dhs.Data != nil {
				for j, g := range dhs.Row(t) {
					dh[j] += g
				}
			}
			dx, prev := cell.StepBackwardScratch(nil, caches[t], dh, dc)
			copy(dxs.Row(t), dx)
			dh, dc = prev.H, prev.C
		}
		out = [][]float64{dxs.Data, dh, dc}
		for _, p := range cell.Params() {
			out = append(out, slices.Clone(p.Grad.Data))
		}
	})
	return out
}

// backwardAgainstGo runs x forward from s0 and backpropagates dhs and
// dFinal through it on the SIMD kernels (where the CPU has them) and on
// the Go kernels, and holds both to backwardStepwise. It returns the
// reference outputs.
func backwardAgainstGo(t *testing.T, label string, cell *LSTMCell, x Mat, s0 LSTMState, dhs Mat, dFinal LSTMState) [][]float64 {
	t.Helper()
	caches := make([]*LSTMCache, x.Rows)
	cell.Sequence(NewScratch(), LSTMPanels{}, x, Mat{}, s0, caches)
	want := backwardStepwise(cell, caches, dhs, dFinal)
	var sides []string
	var gots [][][]float64
	if useSIMD {
		sides, gots = append(sides, "simd"), append(gots, backwardOutputs(cell, caches, dhs, dFinal))
	}
	goKernels(func() {
		sides, gots = append(sides, "go"), append(gots, backwardOutputs(cell, caches, dhs, dFinal))
	})
	for k, got := range gots {
		for i, name := range backwardGradNames {
			sameBits(t, fmt.Sprintf("%s, %s: %s", label, sides[k], name), got[i], want[i])
		}
	}
	return want
}

// saturates reports whether a step's cache holds a gate at a value whose
// derivative rounds to zero (a sigmoid gate at 0 or 1, the candidate at
// ±1), which puts a zero in that step's dPre row.
func saturates(c *LSTMCache) bool {
	for j := range c.i {
		for _, v := range []float64{c.i[j], c.f[j], c.o[j]} {
			if v == 0 || v == 1 {
				return true
			}
		}
		if math.Abs(c.g[j]) == 1 {
			return true
		}
	}
	return false
}

// TestBackwardSequenceMatchesGoKernels holds BackwardSequenceScratch, on
// the SIMD kernels and on the Go kernels, to the step-at-a-time reference:
// every parameter gradient, dxs and dS0, bit for bit, at hidden sizes 1, 7
// and 32 and input sizes 1, 5 and 32 (every remainder of a four-row
// panel), at 1 and 5 steps (no pack) and 6 and 72 (packed), with the
// loss's gradient on every step, on the final state only, and on both.
// Besides dense, sparse and special-valued inputs and weights, a
// saturated sequence alternates steps whose gates round to 0 or 1 with
// steps that do not, so that dPre rows with zeros take MulVecTInto's skip
// and the rest the panels; and an infinite weight saturates its own gate,
// where multiplying the zero instead of skipping it would give NaN.
func TestBackwardSequenceMatchesGoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, hidden := range []int{1, 7, 32} {
		for _, in := range []int{1, 5, 32} {
			for _, steps := range []int{1, 5, 6, 72} {
				for _, mode := range []string{"dense", "sparse", "specials", "saturated", "inf weight"} {
					cell := NewLSTMCell("c", in, hidden, rng)
					x := NewMat(steps, in)
					s0 := cell.NewLSTMState()
					fill := fillDense
					switch mode {
					case "sparse":
						fill = fillSparse
					case "specials":
						fill = fillSpecials
						for _, p := range cell.Params() {
							for i := range p.Value.Data {
								if rng.Intn(8) == 0 {
									p.Value.Data[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
								}
							}
						}
					}
					fill.fill(rng, x)
					fill.fill(rng, Mat{Rows: 1, Cols: hidden, Data: s0.H})
					fill.fill(rng, Mat{Rows: 1, Cols: hidden, Data: s0.C})
					switch mode {
					case "saturated":
						for r := 0; r < steps; r += 2 {
							for j := range x.Row(r) {
								x.Row(r)[j] *= 4000
							}
						}
					case "inf weight":
						cell.Wx.Value.Set(0, 0, math.Inf(1)) // input gate of cell 0
						cell.Wh.Value.Set(2*hidden, 0, math.Inf(1))
						for i := range x.Data {
							x.Data[i] = math.Abs(x.Data[i]) + 0.5
						}
						s0.H[0] = 0.5
					}
					dhs, dFinal := NewMat(steps, hidden), cell.NewLSTMState()
					fill.fill(rng, dhs)
					fill.fill(rng, Mat{Rows: 1, Cols: hidden, Data: dFinal.H})
					fill.fill(rng, Mat{Rows: 1, Cols: hidden, Data: dFinal.C})
					for _, grads := range []string{"steps", "final", "both"} {
						d, f := dhs, dFinal
						switch grads {
						case "steps":
							f = LSTMState{}
						case "final":
							d = Mat{}
						}
						label := fmt.Sprintf("%d->%d, %d steps, %s, gradients on %s", in, hidden, steps, mode, grads)
						want := backwardAgainstGo(t, label, cell, x, s0, d, f)
						if mode == "inf weight" {
							for r := 0; r < steps; r++ {
								if dx := want[0][r*in]; math.IsNaN(dx) || math.IsInf(dx, 0) {
									t.Fatalf("%s: dx[%d][0] = %v: the infinite weight's zero multiplier was not skipped", label, r, dx)
								}
							}
							if dh := want[1][0]; math.IsNaN(dh) || math.IsInf(dh, 0) {
								t.Fatalf("%s: dS0.H[0] = %v: the infinite weight's zero multiplier was not skipped", label, dh)
							}
						}
					}
					if mode == "saturated" && steps >= seqPackMinSteps {
						caches := make([]*LSTMCache, steps)
						cell.Sequence(nil, LSTMPanels{}, x, Mat{}, s0, caches)
						sat := 0
						for _, c := range caches {
							if saturates(c) {
								sat++
							}
						}
						if sat == 0 || sat == steps {
							t.Fatalf("%d->%d, %d steps: %d steps saturate, want some and not all", in, hidden, steps, sat)
						}
					}
				}
			}
		}
	}
}

// TestAttentionBackwardMatchesGoKernels runs BackwardScratch on the SIMD
// kernels (dOut·Vᵀ on the fold against a transposed V) beside the Go
// kernels: dX and the three projection gradients must agree bit for bit,
// causal or not, at lengths that leave every remainder, with dOut's first
// half zero (TFT's encoder rows), on values holding the specials and
// beside an infinite weight.
func TestAttentionBackwardMatchesGoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// An infinite value weight in Wv's row 0 makes column 0 of V = x·Wvᵀ
	// infinite, and dOut's column 0 is zero: dOut·Vᵀ skips the zeros, so
	// every gradient stays finite, where one multiplied 0·Inf would be
	// NaN. The Go kernels are held to that too.
	a := NewAttention("a", 8, true, rng)
	a.Wv.Value.Set(0, 3, math.Inf(1))
	x, dOut := NewMat(13, 8), NewMat(13, 8)
	fillDense.fill(rng, x)
	fillDense.fill(rng, dOut)
	for i := 0; i < dOut.Rows; i++ {
		dOut.Set(i, 0, 0)
	}
	_, c := a.Forward(x)
	for i, v := range a.Backward(c, dOut).Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("an infinite value weight: dX[%d] = %v, want finite", i, v)
		}
	}
	if !useSIMD {
		t.Skip("no SIMD kernels on this CPU")
	}
	attentionBackwardAgainstGo(t, "an infinite value weight", a, x, dOut)

	for _, dim := range []int{1, 3, 8, 32} {
		for _, tlen := range []int{1, 3, 4, 5, 8, 9, 13, 84} {
			for _, causal := range []bool{true, false} {
				for _, mode := range []fillMode{fillDense, fillSparse, fillSpecials} {
					a := NewAttention("a", dim, causal, rng)
					if mode != fillDense {
						for _, p := range a.Params() {
							mode.fill(rng, p.Value)
						}
					}
					x, dOut := NewMat(tlen, dim), NewMat(tlen, dim)
					mode.fill(rng, x)
					mode.fill(rng, dOut)
					if mode == fillDense {
						clear(dOut.Data[:tlen/2*dim])
					}
					label := fmt.Sprintf("dim %d, %d steps, causal %v, %v", dim, tlen, causal, mode)
					attentionBackwardAgainstGo(t, label, a, x, dOut)
				}
			}
		}
	}

}

// attentionBackwardAgainstGo is the check of
// TestAttentionBackwardMatchesGoKernels and FuzzBackwardLanes for one
// input and upstream gradient.
func attentionBackwardAgainstGo(t *testing.T, label string, a *Attention, x, dOut Mat) {
	t.Helper()
	run := func() [][]float64 {
		a.Params().ZeroGrads()
		_, c := a.ForwardScratch(nil, x)
		out := [][]float64{a.BackwardScratch(NewScratch(), c, dOut).Data}
		for _, p := range a.Params() {
			out = append(out, slices.Clone(p.Grad.Data))
		}
		return out
	}
	got := run()
	var want [][]float64
	goKernels(func() { want = run() })
	for i, name := range []string{"dX", "Wq grad", "Wk grad", "Wv grad"} {
		sameBits(t, label+" "+name, got[i], want[i])
	}
}

// adamAgainstGo takes steps Adam steps with o on the SIMD kernels and with
// a copy of it on the Go kernels, each on its own copy of the parameters,
// the gradients of step k drawn by grads(k), and holds the values and both
// moments to each other after every step.
func adamAgainstGo(t *testing.T, label string, o *Adam, ps Params, steps int, grads func(k int, p *Param)) {
	t.Helper()
	goOpt := NewAdam(o.LR)
	goOpt.Beta1, goOpt.Beta2, goOpt.Eps = o.Beta1, o.Beta2, o.Eps
	goPs := make(Params, len(ps))
	for i, p := range ps {
		goPs[i] = &Param{Name: p.Name, Value: p.Value.Clone()}
	}
	for k := 0; k < steps; k++ {
		for i, p := range ps {
			p.grad()
			grads(k, p)
			goPs[i].Grad = p.Grad.Clone()
		}
		o.Step(ps)
		goKernels(func() { goOpt.Step(goPs) })
		for i, p := range ps {
			l := fmt.Sprintf("%s, step %d, %s", label, k, p.Name)
			sameBits(t, l+" value", p.Value.Data, goPs[i].Value.Data)
			sameBits(t, l+" m", o.m[p], goOpt.m[goPs[i]])
			sameBits(t, l+" v", o.v[p], goOpt.v[goPs[i]])
		}
	}
}

// TestAdamStepMatchesGo holds Adam.Step on adamLanes to the Go loop: a
// parameter of every length 0–9 (each remainder of a four-lane group),
// 33 and 128, over five steps, with gradients and values dense, sparse,
// all zero and holding the specials, at the paper's rate and at one with
// other betas and epsilon.
func TestAdamStepMatchesGo(t *testing.T) {
	if !useSIMD {
		t.Skip("no SIMD kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(43))
	for _, mode := range []fillMode{fillDense, fillSparse, fillZero, fillSpecials} {
		for _, cfg := range []struct{ lr, b1, b2, eps float64 }{{1e-3, 0.9, 0.999, 1e-8}, {0.05, 0.5, 0.75, 1e-3}} {
			o := NewAdam(cfg.lr)
			o.Beta1, o.Beta2, o.Eps = cfg.b1, cfg.b2, cfg.eps
			var ps Params
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 128} {
				p := NewParam(fmt.Sprintf("p%d", n), 1, n)
				mode.fill(rng, p.Value)
				ps = append(ps, p)
			}
			adamAgainstGo(t, fmt.Sprintf("%v, lr %v", mode, cfg.lr), o, ps, 5, func(_ int, p *Param) { mode.fill(rng, p.Grad) })
		}
	}
}

// FuzzBackwardLanes runs the backward pass on fuzzer-chosen shapes (input
// 1–8, hidden 1–12, 1–13 steps, so both sides of seqPackMinSteps) and
// values, zeros of either sign, NaN and ±Inf among them (see fuzzValues),
// whose large weights saturate gates: BackwardSequenceScratch on the SIMD
// and the Go kernels against the step-at-a-time reference, Adam.Step on
// the resulting gradients against the Go loop, and the attention backward
// against the Go kernels.
func FuzzBackwardLanes(f *testing.F) {
	// Bytes: 0 → +0, 1 → -0, 2 → +Inf, 3 → -Inf, 4 → NaN, 10 → 1.
	f.Add(uint8(5), uint8(7), uint8(6), []byte{60, 200, 30, 90, 140, 10, 250, 70})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{10, 130})
	f.Add(uint8(4), uint8(12), uint8(13), []byte{127, 0, 60, 1, 200, 90, 2, 30, 160})
	f.Add(uint8(8), uint8(4), uint8(9), []byte{2, 70, 100, 4, 220, 10, 3, 40})
	f.Add(uint8(3), uint8(5), uint8(7), []byte{})
	// Small values (255 → -1/3, 254 → -2/3, 11 → -1) keep the gates off
	// saturation, so the packed pass runs the panels.
	f.Add(uint8(5), uint8(7), uint8(6), []byte{255, 10, 254, 11, 253, 255, 10, 254, 255})
	f.Add(uint8(7), uint8(11), uint8(12), []byte{254, 255, 10, 255, 11, 254, 253})
	f.Fuzz(func(t *testing.T, in, hidden, steps uint8, raw []byte) {
		di, dh, ds := 1+int(in%8), 1+int(hidden%12), 1+int(steps%13)
		vals := &fuzzValues{raw: raw}
		cell := &LSTMCell{InSize: di, Hidden: dh,
			Wx: &Param{Name: "Wx", Value: vals.mat(4*dh, di)},
			Wh: &Param{Name: "Wh", Value: vals.mat(4*dh, dh)},
			B:  &Param{Name: "b", Value: vals.mat(4*dh, 1)}}
		x := vals.mat(ds, di)
		s0 := LSTMState{H: vals.mat(1, dh).Data, C: vals.mat(1, dh).Data}
		dhs := vals.mat(ds, dh)
		dFinal := LSTMState{H: vals.mat(1, dh).Data, C: vals.mat(1, dh).Data}
		backwardAgainstGo(t, fmt.Sprintf("%d->%d, %d steps", di, dh, ds), cell, x, s0, dhs, dFinal)

		if useSIMD {
			adamAgainstGo(t, "Adam", NewAdam(0.01), cell.Params(), 2, func(int, *Param) {})
			a := &Attention{Dim: di, Causal: ds%2 == 0,
				Wq: &Param{Value: vals.mat(di, di)}, Wk: &Param{Value: vals.mat(di, di)}, Wv: &Param{Value: vals.mat(di, di)}}
			attentionBackwardAgainstGo(t, "attention", a, x, vals.mat(ds, di))
		}
	})
}
