package nn

import (
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

// BenchmarkGRNStep is the same comparison for the TFT's gated block.
func BenchmarkGRNStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := NewGRN("g", 32, rng)
	x := randVec(rng, 32)
	dy := randVec(rng, 32)

	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, cache := g.Forward(x)
			_ = g.Backward(cache, dy)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		s := NewScratch()
		for i := 0; i < b.N; i++ {
			s.Reset()
			_, cache := g.ForwardScratch(s, x)
			_ = g.BackwardScratch(s, cache, dy)
		}
	})
}
