package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad perturbs each parameter element and measures the loss
// change, comparing against the analytic gradient accumulated by a single
// forward+backward pass.
func checkParamGrads(t *testing.T, params Params, loss func() float64, tol float64) {
	t.Helper()
	const eps = 1e-6
	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := loss()
			p.Value.Data[i] = orig - eps
			lm := loss()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data[i]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > tol {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// scalarLoss turns a vector output into a scalar via a fixed random
// projection, so gradient checks exercise all outputs.
func scalarLoss(out, weights []float64) float64 {
	s := 0.0
	for i, v := range out {
		s += v * weights[i]
	}
	return s
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 4, 3, rng)
	x := randVec(rng, 4)
	w := randVec(rng, 3)

	loss := func() float64 {
		y, _ := d.Forward(x)
		return scalarLoss(y, w)
	}
	d.Params().ZeroGrads()
	y, cache := d.Forward(x)
	_ = y
	dx := d.Backward(cache, w)
	checkParamGrads(t, d.Params(), loss, 1e-6)

	// Input gradient check.
	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := loss()
		x[i] = orig - eps
		lm := loss()
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx[i]) > 1e-6 {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, dx[i], numeric)
		}
	}
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, act := range []Activation{Tanh} {
		x := randVec(rng, 6)
		w := randVec(rng, 6)
		y, cache := act.Forward(x)
		_ = y
		dx := act.Backward(cache, w)
		const eps = 1e-6
		for i := range x {
			orig := x[i]
			x[i] = orig + eps
			yp, _ := act.Forward(x)
			x[i] = orig - eps
			ym, _ := act.Forward(x)
			x[i] = orig
			numeric := (scalarLoss(yp, w) - scalarLoss(ym, w)) / (2 * eps)
			if math.Abs(numeric-dx[i]) > 1e-5 {
				t.Errorf("%s dx[%d]: analytic %v vs numeric %v", act.Name, i, dx[i], numeric)
			}
		}
	}
}

func TestLSTMStepGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cell := NewLSTMCell("lstm", 3, 4, rng)
	x := randVec(rng, 3)
	s0 := LSTMState{H: randVec(rng, 4), C: randVec(rng, 4)}
	wh := randVec(rng, 4)
	wc := randVec(rng, 4)

	loss := func() float64 {
		s, _ := cell.Step(x, s0)
		return scalarLoss(s.H, wh) + scalarLoss(s.C, wc)
	}
	cell.Params().ZeroGrads()
	_, cache := cell.Step(x, s0)
	dx, dPrev := stepBackward(cell, nil, cache, wh, wc)
	checkParamGrads(t, cell.Params(), loss, 1e-5)

	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := loss()
		x[i] = orig - eps
		lm := loss()
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx[i]) > 1e-5 {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, dx[i], numeric)
		}
	}
	for i := range s0.H {
		orig := s0.H[i]
		s0.H[i] = orig + eps
		lp := loss()
		s0.H[i] = orig - eps
		lm := loss()
		s0.H[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dPrev.H[i]) > 1e-5 {
			t.Errorf("dhPrev[%d]: analytic %v vs numeric %v", i, dPrev.H[i], numeric)
		}
	}
	for i := range s0.C {
		orig := s0.C[i]
		s0.C[i] = orig + eps
		lp := loss()
		s0.C[i] = orig - eps
		lm := loss()
		s0.C[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dPrev.C[i]) > 1e-5 {
			t.Errorf("dcPrev[%d]: analytic %v vs numeric %v", i, dPrev.C[i], numeric)
		}
	}
}

func TestLSTMSequenceGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cell := NewLSTMCell("lstm", 2, 3, rng)
	const T = 5
	x, ws := NewMat(T, 2), NewMat(T, 3)
	for t := 0; t < T; t++ {
		copy(x.Row(t), randVec(rng, 2))
		copy(ws.Row(t), randVec(rng, 3))
	}
	s0 := cell.NewLSTMState()

	loss := func() float64 {
		hs := NewMat(T, 3)
		cell.Sequence(nil, LSTMPanels{}, x, hs, s0, nil)
		total := 0.0
		for t := 0; t < T; t++ {
			total += scalarLoss(hs.Row(t), ws.Row(t))
		}
		return total
	}
	cell.Params().ZeroGrads()
	caches := make([]*LSTMCache, T)
	cell.Sequence(nil, LSTMPanels{}, x, NewMat(T, 3), s0, caches)
	dxs, _ := cell.BackwardSequenceScratch(nil, caches, ws, LSTMState{})
	checkParamGrads(t, cell.Params(), loss, 1e-5)

	const eps = 1e-6
	for i, orig := range x.Data {
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dxs.Data[i]) > 1e-5 {
			t.Errorf("dxs[%d][%d]: analytic %v vs numeric %v", i/2, i%2, dxs.Data[i], numeric)
		}
	}
}

func TestAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, causal := range []bool{false, true} {
		attn := NewAttention("attn", 3, causal, rng)
		const T = 4
		x := NewMat(T, 3)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		w := NewMat(T, 3)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}

		loss := func() float64 {
			out, _ := attn.ForwardScratch(nil, x)
			s := 0.0
			for i, v := range out.Data {
				s += v * w.Data[i]
			}
			return s
		}
		attn.Params().ZeroGrads()
		_, cache := attn.ForwardScratch(nil, x)
		dX := attn.BackwardScratch(nil, cache, w)
		checkParamGrads(t, attn.Params(), loss, 1e-5)

		const eps = 1e-6
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp := loss()
			x.Data[i] = orig - eps
			lm := loss()
			x.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-dX.Data[i]) > 1e-5 {
				t.Errorf("causal=%v dX[%d]: analytic %v vs numeric %v", causal, i, dX.Data[i], numeric)
			}
		}
	}
}

func TestCausalMaskZeroesFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	attn := NewAttention("attn", 2, true, rng)
	x := NewMat(3, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	_, cache := attn.ForwardScratch(nil, x)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if cache.attn.At(i, j) != 0 {
				t.Errorf("attn[%d][%d] = %v, want 0 under causal mask", i, j, cache.attn.At(i, j))
			}
		}
	}
	// Rows sum to 1.
	for i := 0; i < 3; i++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			sum += cache.attn.At(i, j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("attn row %d sums to %v", i, sum)
		}
	}
}
