package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMat(5, 3)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := randVec(rng, 3)
	want := m.MulVec(x)
	dst := make([]float64, 5)
	for i := range dst {
		dst[i] = math.NaN() // must be fully overwritten
	}
	got := m.MulVecInto(x, dst)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MulVecInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMulVecTIntoMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMat(5, 3)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	y := randVec(rng, 5)
	want := m.MulVecT(y)
	dst := make([]float64, 3)
	for i := range dst {
		dst[i] = 99 // stale contents must not leak into the result
	}
	got := m.MulVecTInto(y, dst)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MulVecTInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAddOuterIntoMatchesAddOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	y, x := randVec(rng, 4), randVec(rng, 3)
	a, b := NewMat(4, 3), NewMat(4, 3)
	a.AddOuter(y, x)
	AddOuterInto(b, y, x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Errorf("AddOuterInto[%d] = %v, want %v", i, b.Data[i], a.Data[i])
		}
	}
}

func TestIntoKernelsPanicOnBadDst(t *testing.T) {
	m := NewMat(4, 3)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with wrong destination did not panic", name)
			}
		}()
		f()
	}
	expectPanic("MulVecInto", func() { m.MulVecInto(make([]float64, 3), make([]float64, 2)) })
	expectPanic("MulVecTInto", func() { m.MulVecTInto(make([]float64, 4), make([]float64, 2)) })
}

func TestScratchReusesBuffers(t *testing.T) {
	s := NewScratch()
	v1 := s.Vec(16)
	v1[0] = 42
	s.Reset()
	v2 := s.Vec(16)
	if &v1[0] != &v2[0] {
		t.Error("Vec after Reset did not reuse the buffer")
	}
	v3 := s.Vec(16)
	if &v3[0] == &v2[0] {
		t.Error("two live Vecs share storage")
	}
	if z := s.VecZero(16); z[0] != 0 {
		t.Errorf("VecZero returned dirty buffer: %v", z[0])
	}
}

func TestScratchNilFallback(t *testing.T) {
	var s *Scratch
	v := s.Vec(4)
	if len(v) != 4 {
		t.Fatalf("nil scratch Vec len = %d", len(v))
	}
	s.Reset() // must not panic
	if c := s.VecCopy([]float64{1, 2}); c[1] != 2 {
		t.Errorf("nil scratch VecCopy = %v", c)
	}
}

// TestScratchStepMatchesHeapStep pins that the arena path computes exactly
// what the allocating path computes, forward and backward.
func TestScratchStepMatchesHeapStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cell := NewLSTMCell("c", 4, 6, rng)
	x := randVec(rng, 4)
	dh := randVec(rng, 6)
	dc := randVec(rng, 6)

	st1, cache1 := cell.Step(x, cell.NewLSTMState())
	cell.Params().ZeroGrads()
	dx1, dPrev1 := cell.StepBackward(cache1, dh, dc)
	grads1 := make([]float64, 0)
	for _, p := range cell.Params() {
		grads1 = append(grads1, append([]float64{}, p.Grad.Data...)...)
	}

	s := NewScratch()
	st2, cache2 := cell.StepScratch(s, x, cell.NewLSTMStateScratch(s))
	cell.Params().ZeroGrads()
	dx2, dPrev2 := cell.StepBackwardScratch(s, cache2, dh, dc)
	grads2 := make([]float64, 0)
	for _, p := range cell.Params() {
		grads2 = append(grads2, append([]float64{}, p.Grad.Data...)...)
	}

	vecEqual := func(name string, a, b []float64) {
		t.Helper()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %v != %v", name, i, a[i], b[i])
			}
		}
	}
	vecEqual("H", st1.H, st2.H)
	vecEqual("C", st1.C, st2.C)
	vecEqual("dx", dx1, dx2)
	vecEqual("dPrev.H", dPrev1.H, dPrev2.H)
	vecEqual("dPrev.C", dPrev1.C, dPrev2.C)
	vecEqual("grads", grads1, grads2)
}

// TestLSTMStepZeroAlloc enforces the headline kernel guarantee: once the
// arena is warm, one LSTM forward+backward step allocates nothing.
func TestLSTMStepZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cell := NewLSTMCell("c", 8, 32, rng)
	x := randVec(rng, 8)
	dh := randVec(rng, 32)
	dc := randVec(rng, 32)
	s := NewScratch()

	step := func() {
		s.Reset()
		state, cache := cell.StepScratch(s, x, cell.NewLSTMStateScratch(s))
		_, _ = cell.StepBackwardScratch(s, cache, dh, dc)
		_ = state
	}
	for i := 0; i < 8; i++ {
		step() // warm the arena
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("LSTM step allocates %v times in steady state, want 0", allocs)
	}
}

// TestGRNZeroAlloc extends the guarantee to the TFT's gated block.
func TestGRNZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGRN("g", 16, rng)
	x := randVec(rng, 16)
	dy := randVec(rng, 16)
	s := NewScratch()

	step := func() {
		s.Reset()
		_, cache := g.ForwardScratch(s, x)
		_ = g.BackwardScratch(s, cache, dy)
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("GRN forward+backward allocates %v times in steady state, want 0", allocs)
	}
}

// TestReplicaSharesValuesSplitsGrads pins the replica contract for every
// layer type used by the forecasters.
func TestReplicaSharesValuesSplitsGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cell := NewLSTMCell("c", 3, 4, rng)
	rep := cell.Replica()

	if &rep.Wx.Value.Data[0] != &cell.Wx.Value.Data[0] {
		t.Error("replica does not share value storage")
	}
	if &rep.Wx.Grad.Data[0] == &cell.Wx.Grad.Data[0] {
		t.Error("replica shares gradient storage")
	}

	// Backward through the replica must leave the master's grads untouched.
	x := randVec(rng, 3)
	st, cache := rep.Step(x, rep.NewLSTMState())
	_ = st
	dh, dc := randVec(rng, 4), randVec(rng, 4)
	rep.StepBackward(cache, dh, dc)
	for _, p := range cell.Params() {
		for i, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("master grad %s[%d] = %v after replica backward", p.Name, i, g)
			}
		}
	}

	// Merging replica grads must reproduce a direct backward bit-for-bit.
	cell.Params().ZeroGrads()
	AccumGrads(cell.Params(), rep.Params())
	direct := NewLSTMCell("c", 3, 4, rand.New(rand.NewSource(6)))
	_, dcache := direct.Step(x, direct.NewLSTMState())
	direct.StepBackward(dcache, dh, dc)
	for pi, p := range cell.Params() {
		dp := direct.Params()[pi]
		for i := range p.Grad.Data {
			if p.Grad.Data[i] != dp.Grad.Data[i] {
				t.Fatalf("merged grad %s[%d] = %v, want %v", p.Name, i, p.Grad.Data[i], dp.Grad.Data[i])
			}
		}
	}
}

func TestReplicaSelfAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, attn := range []SelfAttention{
		NewAttention("a", 4, true, rng),
		mustMHA(t, 4, 2, rng),
	} {
		rep := ReplicaSelfAttention(attn)
		if &rep.Params()[0].Value.Data[0] != &attn.Params()[0].Value.Data[0] {
			t.Errorf("%T replica does not share value storage", attn)
		}
		if &rep.Params()[0].Grad.Data[0] == &attn.Params()[0].Grad.Data[0] {
			t.Errorf("%T replica shares gradient storage", attn)
		}
	}
}

func mustMHA(t *testing.T, dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	t.Helper()
	a, err := NewMultiHeadAttention("m", dim, heads, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mulVecReference is the single-accumulator loop MulVecInto used before it
// computed four rows per pass; it stays here as the bit-level reference.
func mulVecReference(m Mat, x, dst []float64) {
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for j, v := range m.Row(i) {
			sum += v * x[j]
		}
		dst[i] = sum
	}
}

// TestMulVecIntoBitIdentical is the kernel's determinism contract: the
// four-row pass and its Rows%4 tail produce, for every row, exactly the
// bits of the one-row loop — same summation order, multiply then add —
// including for signed zeros, subnormals, infinities and NaN.
func TestMulVecIntoBitIdentical(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	rng := rand.New(rand.NewSource(11))
	fill := func(v []float64, specials bool) {
		for i := range v {
			if specials && rng.Intn(3) == 0 {
				v[i] = special[rng.Intn(len(special))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
	}
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 128}
	cols := []int{0, 1, 5, 32, 33}
	for _, r := range rows {
		for _, c := range cols {
			for _, specials := range []bool{false, true} {
				m := NewMat(r, c)
				x := make([]float64, c)
				fill(m.Data, specials)
				fill(x, specials)
				want := make([]float64, r)
				got := make([]float64, r)
				for i := range got {
					got[i] = 99 // must be fully overwritten
				}
				mulVecReference(m, x, want)
				m.MulVecInto(x, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%d specials=%v row %d: got %v (%#x), want %v (%#x)",
							r, c, specials, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestScratchVecsDisjoint pins the arena's issue discipline: between two
// Resets no two vectors share a float — across a slab boundary and for a
// request larger than a slab too — and each vector's capacity is its
// length, so an append cannot spill into the neighbour.
func TestScratchVecsDisjoint(t *testing.T) {
	sizes := []int{7, slabFloats - 10, 8, 3 * slabFloats, 0, 1, slabFloats, 5, 2*slabFloats + 1, 64}
	s := NewScratch()
	for cycle := 0; cycle < 2; cycle++ {
		s.Reset()
		vecs := make([][]float64, len(sizes))
		for i, n := range sizes {
			v := s.Vec(n)
			if len(v) != n || cap(v) != n {
				t.Fatalf("cycle %d: Vec(%d) has len %d cap %d", cycle, n, len(v), cap(v))
			}
			for j := range v {
				v[j] = float64(i)
			}
			vecs[i] = v
		}
		for i, v := range vecs {
			for j, got := range v {
				if got != float64(i) {
					t.Fatalf("cycle %d: vec %d (len %d) element %d overwritten by vec %v", cycle, i, len(v), j, got)
				}
			}
		}
		grown := append(vecs[0], 1)
		if &grown[0] == &vecs[0][0] {
			t.Fatalf("cycle %d: append to an arena vector grew in place", cycle)
		}
	}
}

// TestScratchCycleRepeatsAddresses pins the steady state: a second
// identical multi-slab cycle allocates nothing and hands back the same
// memory in the same order.
func TestScratchCycleRepeatsAddresses(t *testing.T) {
	sizes := []int{128, 128, 32, slabFloats - 100, 200, 2 * slabFloats, 32, 900, 900}
	s := NewScratch()
	var addrs []*float64
	cycle := func(record bool) {
		s.Reset()
		for i, n := range sizes {
			v := s.Vec(n)
			switch {
			case record:
				addrs = append(addrs, &v[0])
			case &v[0] != addrs[i]:
				t.Fatalf("Vec %d (len %d) moved between identical cycles", i, n)
			}
		}
	}
	cycle(true)
	if len(s.slabs) < 3 {
		t.Fatalf("cycle spans %d slabs, want a multi-slab cycle", len(s.slabs))
	}
	if allocs := testing.AllocsPerRun(10, func() { cycle(false) }); allocs != 0 {
		t.Errorf("identical arena cycle allocates %v times, want 0", allocs)
	}
}
