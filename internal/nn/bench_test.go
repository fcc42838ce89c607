package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkMatMulVec contrasts the allocating kernel with the *Into form
// on the LSTM's dominant shape (4H x H by H). The "into" variant must
// report 0 allocs/op.
func BenchmarkMatMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const h = 32
	m := NewMat(4*h, h)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := randVec(rng, h)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.MulVecInto(x, make([]float64, 4*h))
		}
	})
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]float64, 4*h)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m.MulVecInto(x, dst)
		}
	})
}

// BenchmarkLSTMStep measures one forward+backward step through the cell,
// heap path versus arena path. The scratch variant must report 0 allocs/op
// in steady state — this is the per-timestep cost inside every BPTT loop.
func BenchmarkLSTMStep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cell := NewLSTMCell("c", 8, 32, rng)
	x := randVec(rng, 8)
	dh := randVec(rng, 32)
	dc := randVec(rng, 32)

	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			state, cache := cell.Step(x, cell.NewLSTMState())
			_, _ = stepBackward(cell, nil, cache, dh, dc)
			_ = state
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		s := NewScratch()
		for i := 0; i < 8; i++ { // warm the arena outside the timed region
			s.Reset()
			state, cache := cell.StepScratch(s, x, cell.NewLSTMStateScratch(s))
			_, _ = stepBackward(cell, s, cache, dh, dc)
			_ = state
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			state, cache := cell.StepScratch(s, x, cell.NewLSTMStateScratch(s))
			_, _ = stepBackward(cell, s, cache, dh, dc)
			_ = state
		}
	})
}

// BenchmarkLSTMRollout measures one DeepAR sample path: input 5, hidden
// 32, eleven forward-only StepScratch calls per arena Reset — the loop the
// Monte-Carlo rollout runs once per path. It is where the matvec kernel
// and the arena's Vec meet; 0 allocs/op in steady state.
func BenchmarkLSTMRollout(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cell := NewLSTMCell("c", 5, 32, rng)
	x := randVec(rng, 5)
	s := NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset()
		state := cell.NewLSTMStateScratch(s)
		for t := 0; t < 11; t++ {
			state, _ = cell.StepScratch(s, x, state)
		}
	}
}

// BenchmarkMulVecTInto is the input-gradient product of every LSTM BPTT
// step: Wh^T (128x32) and Wx^T (128x5) by the 128 gate gradients.
func BenchmarkMulVecTInto(b *testing.B) {
	for _, in := range []int{32, 5} {
		rng := rand.New(rand.NewSource(5))
		m := NewMat(128, in)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		y := randVec(rng, 128)
		dst := make([]float64, in)
		b.Run(fmt.Sprintf("128x%d", in), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.MulVecTInto(y, dst)
			}
		})
	}
}

// BenchmarkAddOuterInto is the weight-gradient product of the same step:
// the 128 gate gradients times the 32-wide hidden state into Wh's
// gradient, on the Go kernels and on outer4Lanes.
func BenchmarkAddOuterInto(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	dst := NewMat(128, 32)
	y := randVec(rng, 128)
	x := randVec(rng, 32)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AddOuterInto(dst, y, x)
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

// BenchmarkMatMul runs the three products at TFT's attention shapes
// (T = 144 steps, D = 32): causal weights times values (ab), the input
// times a projection's transpose (abT) and the weights' transpose times
// the values' gradient (aTb).
func BenchmarkMatMul(b *testing.B) {
	const tlen, dim = 144, 32
	rng := rand.New(rand.NewSource(7))
	fill := func(m Mat) Mat {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	attn := fill(NewMat(tlen, tlen))
	for i := 0; i < tlen; i++ {
		for j := i + 1; j < tlen; j++ {
			attn.Set(i, j, 0)
		}
	}
	v := fill(NewMat(tlen, dim))
	w := fill(NewMat(dim, dim))
	for _, bc := range []struct {
		name string
		mul  func() Mat
	}{
		{"ab", func() Mat { return matMul(nil, attn, v) }},
		{"abT", func() Mat { return matMulBT(v, w) }},
		{"aTb", func() Mat { return matMulAT(nil, attn, v) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bc.mul()
			}
		})
	}
}

// BenchmarkLSTMRolloutBatch is BenchmarkLSTMRollout for a block of eight
// paths stepped in lockstep by StepBatch, the loop one DeepAR sampling
// block runs. Divide ns/op by eight to compare it with the one-path
// rollout; 0 allocs/op in steady state. The weights are packed once,
// outside the timed loop, as DeepAR packs them once per call.
func BenchmarkLSTMRolloutBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cell := NewLSTMCell("c", 5, 32, rng)
	const paths = 8
	s := NewScratch()
	x := NewMat(paths, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	panels := cell.PackPanels(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		batch := cell.NewLSTMBatch(s, paths)
		for t := 0; t < 11; t++ {
			cell.StepBatch(batch, x, panels)
		}
	}
}

// BenchmarkLSTMSequence is one TFT encoder pass: 72 steps of a cell with
// input and hidden size 32 through Sequence, caches kept, per arena Reset,
// on the Go kernels and on the SIMD kernels (which pack Wx and Wh into
// the arena every pass); 0 allocs/op in steady state.
func BenchmarkLSTMSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	cell := NewLSTMCell("c", 32, 32, rng)
	const steps = 72
	x := NewMat(steps, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	caches := make([]*LSTMCache, steps)
	run := func(b *testing.B) {
		s := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Reset()
			cell.Sequence(s, LSTMPanels{}, x, Mat{}, cell.NewLSTMStateScratch(s), caches)
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

// BenchmarkLSTMBackwardSequence is BenchmarkLSTMSequence's pass
// backpropagated: 72 steps of a cell with input and hidden size 32, a
// hidden-state gradient on every step, through BackwardSequenceScratch
// per arena Reset, on the Go kernels and on the SIMD kernels (which pack
// Whᵀ and Wxᵀ every pass); 0 allocs/op in steady state. The forward pass
// runs once, outside the timed loop, and the gradients accumulate.
func BenchmarkLSTMBackwardSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	cell := NewLSTMCell("c", 32, 32, rng)
	const steps = 72
	x, dhs := NewMat(steps, 32), NewMat(steps, 32)
	for i := range x.Data {
		x.Data[i], dhs.Data[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	caches := make([]*LSTMCache, steps)
	cell.Sequence(NewScratch(), LSTMPanels{}, x, Mat{}, cell.NewLSTMState(), caches)
	cell.Params().ZeroGrads()
	run := func(b *testing.B) {
		s := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Reset()
			cell.BackwardSequenceScratch(s, caches, dhs, LSTMState{})
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

// BenchmarkAttentionBackward is BenchmarkAttentionForward's pass
// backpropagated through BackwardScratch per arena Reset, with TFT's
// upstream gradient: zero on the 72 encoder rows, dense on the 12
// decoder rows.
func BenchmarkAttentionBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	a := NewAttention("a", 32, true, rng)
	x, dOut := NewMat(84, 32), NewMat(84, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := 72 * 32; i < len(dOut.Data); i++ {
		dOut.Data[i] = rng.NormFloat64()
	}
	_, c := a.ForwardScratch(nil, x)
	a.Params().ZeroGrads()
	run := func(b *testing.B) {
		s := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Reset()
			a.BackwardScratch(s, c, dOut)
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

// BenchmarkAttentionForward is TFT's attention at the paper shape: 84
// steps (72 encoder and 12 decoder), dimension 32, causal, per arena
// Reset, on the Go kernels and on the SIMD kernels.
func BenchmarkAttentionForward(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	a := NewAttention("a", 32, true, rng)
	x := NewMat(84, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	run := func(b *testing.B) {
		s := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Reset()
			a.ForwardScratch(s, x)
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

// BenchmarkMathLanes times Sin, Log and Exp on one 64-step block of the
// trace generator's diurnal shape (its sine arguments, the logs of the
// sines' magnitudes and the exps of a 0.35 multiple of those logs), the
// Go side one math call per element, the SIMD side four lanes at a time.
func BenchmarkMathLanes(b *testing.B) {
	var args [3][64]float64
	for k := range args[0] {
		args[0][k] = 2 * math.Pi * (float64(k)/144 + 0.05 - 0.3)
		args[1][k] = math.Abs(math.Sin(args[0][k]))
		args[2][k] = 0.35 * math.Log(args[1][k])
	}
	for i, f := range []struct {
		name string
		fn   func([]float64)
	}{{"sin", Sin}, {"log", Log}, {"exp", Exp}} {
		run := func(b *testing.B) {
			var x [64]float64
			for n := 0; n < b.N; n++ {
				x = args[i]
				f.fn(x[:])
			}
		}
		b.Run(f.name+"/go", func(b *testing.B) { goKernels(func() { run(b) }) })
		b.Run(f.name+"/simd", func(b *testing.B) {
			if !useSIMD {
				b.Skip("no SIMD kernels on this CPU")
			}
			run(b)
		})
	}
}
