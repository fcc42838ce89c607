package nn

import (
	"fmt"
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
			_ = m.MulVec(x)
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
			_, _ = cell.StepBackward(cache, dh, dc)
			_ = state
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		s := NewScratch()
		for i := 0; i < 8; i++ { // warm the arena outside the timed region
			s.Reset()
			state, cache := cell.StepScratch(s, x, cell.NewLSTMStateScratch(s))
			_, _ = cell.StepBackwardScratch(s, cache, dh, dc)
			_ = state
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			state, cache := cell.StepScratch(s, x, cell.NewLSTMStateScratch(s))
			_, _ = cell.StepBackwardScratch(s, cache, dh, dc)
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
	state0 := cell.NewLSTMState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset()
		state := state0.CloneScratch(s)
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
// gradient.
func BenchmarkAddOuterInto(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	dst := NewMat(128, 32)
	y := randVec(rng, 128)
	x := randVec(rng, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AddOuterInto(dst, y, x)
	}
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
		{"ab", func() Mat { return MatMul(attn, v) }},
		{"abT", func() Mat { return MatMulBT(v, w) }},
		{"aTb", func() Mat { return MatMulAT(attn, v) }},
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
