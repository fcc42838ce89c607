package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"robustscale/internal/wire"
)

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 7)
	if m.At(0, 1) != 5 || m.At(1, 2) != 7 {
		t.Error("Set/At mismatch")
	}
	if got := m.Row(1); got[2] != 7 {
		t.Errorf("Row(1) = %v", got)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left residue")
		}
	}
}

func TestMulVec(t *testing.T) {
	m := Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	y := m.MulVec([]float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("MulVec = %v", y)
	}
	yt := m.MulVecT([]float64{1, 1})
	want := []float64{5, 7, 9}
	for i, w := range want {
		if yt[i] != w {
			t.Errorf("MulVecT[%d] = %v, want %v", i, yt[i], w)
		}
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	m := NewMat(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("MulVec should panic on dimension mismatch")
		}
	}()
	m.MulVec([]float64{1, 2})
}

func TestAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4})
	want := []float64{3, 4, 6, 8}
	for i, w := range want {
		if m.Data[i] != w {
			t.Errorf("AddOuter[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
}

func TestMatMulAndTranspose(t *testing.T) {
	a := Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := Mat{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := matMul(nil, a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("matMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
	// Against the identity the transposed products are plain transposes.
	id := Mat{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 1}}
	if at := matMulAT(nil, a, id); at.At(0, 1) != 3 || at.At(1, 0) != 2 {
		t.Errorf("matMulAT(nil, a, I) = %v, want a^T", at.Data)
	}
	if at := matMulBT(id, a); at.At(0, 1) != 3 || at.At(1, 0) != 2 {
		t.Errorf("matMulBT(I, a) = %v, want a^T", at.Data)
	}
}

func TestMatMulMatchesVecOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMat(3, 4)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		x := randVec(rng, 4)
		xm := Mat{Rows: 4, Cols: 1, Data: x}
		viaMatMul := matMul(nil, m, xm)
		viaMulVec := m.MulVec(x)
		for i := range viaMulVec {
			if math.Abs(viaMatMul.Data[i]-viaMulVec[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParam("p", 10, 10)
	p.InitXavier(rng)
	limit := math.Sqrt(6.0 / 20.0)
	nonzero := 0
	for _, v := range p.Value.Data {
		if math.Abs(v) > limit {
			t.Fatalf("init value %v exceeds Xavier limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 90 {
		t.Error("Xavier init left most weights at zero")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", 1, 2)
	Params{p}.ZeroGrads() // a fresh parameter has no gradient buffer
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	ps := Params{p}
	norm := ps.ClipGradNorm(1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v, want 5", norm)
	}
	if got := ps.GradNorm(); math.Abs(got-1) > 1e-12 {
		t.Errorf("post-clip norm = %v, want 1", got)
	}
	// No-op when below the max.
	ps.ClipGradNorm(10)
	if got := ps.GradNorm(); math.Abs(got-1) > 1e-12 {
		t.Errorf("clip below max changed norm to %v", got)
	}
}

func TestParamsCountAndZero(t *testing.T) {
	ps := Params{NewParam("a", 2, 3), NewParam("b", 1, 4)}
	if ps.Count() != 10 {
		t.Errorf("Count = %d", ps.Count())
	}
	ps.ZeroGrads() // a fresh parameter has no gradient buffer
	ps[0].Grad.Data[0] = 5
	ps.ZeroGrads()
	if ps[0].Grad.Data[0] != 0 {
		t.Error("ZeroGrads left residue")
	}
}

// TestGradsLiveOnlyWhileTraining pins the gradient buffer's life: a new
// parameter has none, ZeroGrads or a backward pass makes one, ReleaseGrads
// drops it, and Adam refuses to step a parameter without one.
func TestGradsLiveOnlyWhileTraining(t *testing.T) {
	d := NewDense("d", 2, 3, rand.New(rand.NewSource(1)))
	ps := d.Params()
	held := func() (n int) {
		for _, p := range ps {
			if p.Grad.Data != nil {
				n++
			}
		}
		return n
	}
	if n := held(); n != 0 {
		t.Fatalf("a new layer holds %d gradient buffers", n)
	}
	_, c := d.Forward([]float64{1, 2})
	d.Backward(c, []float64{1, 1, 1})
	if n := held(); n != 2 || d.B.Grad.Data[0] != 1 {
		t.Fatalf("after a backward pass: %d buffers, db[0] = %v", n, d.B.Grad.Data[0])
	}
	ps.ReleaseGrads()
	if n := held(); n != 0 {
		t.Fatalf("ReleaseGrads left %d gradient buffers", n)
	}
	ps.ZeroGrads()
	if n := held(); n != 2 || d.W.Grad.Rows != 3 || d.W.Grad.Cols != 2 {
		t.Fatalf("ZeroGrads made %d buffers, W's %dx%d", n, d.W.Grad.Rows, d.W.Grad.Cols)
	}
	NewAdam(0.01).Step(ps)

	ps.ReleaseGrads()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "d.W") {
			t.Errorf("Adam.Step on a parameter without a gradient: recovered %v, want a panic naming d.W", r)
		}
	}()
	NewAdam(0.01).Step(ps)
}

// Train a tiny dense network on a linear task and check the loss drops.
func trainLinearTask(t *testing.T, opt *Adam, steps int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	d := NewDense("d", 2, 1, rng)
	// Target function y = 2a - b + 0.5.
	sample := func() ([]float64, float64) {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		return x, 2*x[0] - x[1] + 0.5
	}
	var tail float64
	const tailWindow = 100
	for step := 0; step < steps; step++ {
		x, target := sample()
		d.Params().ZeroGrads()
		y, cache := d.Forward(x)
		diff := y[0] - target
		if step >= steps-tailWindow {
			tail += diff * diff
		}
		d.Backward(cache, []float64{2 * diff})
		opt.Step(d.Params())
	}
	return tail / tailWindow
}

func TestAdamConverges(t *testing.T) {
	if loss := trainLinearTask(t, NewAdam(0.01), 3000); loss > 0.02 {
		t.Errorf("Adam final loss = %v", loss)
	}
}

func TestLSTMLearnsToRemember(t *testing.T) {
	// Task: output at the end of a sequence should reflect the first
	// input, which requires carrying state across steps.
	rng := rand.New(rand.NewSource(13))
	cell := NewLSTMCell("lstm", 1, 8, rng)
	head := NewDense("head", 8, 1, rng)
	params := append(cell.Params(), head.Params()...)
	opt := NewAdam(0.01)

	const T = 6
	var lastLoss float64
	for step := 0; step < 800; step++ {
		first := float64(rng.Intn(2))
		xs := make([][]float64, T)
		xs[0] = []float64{first}
		for i := 1; i < T; i++ {
			xs[i] = []float64{rng.NormFloat64() * 0.1}
		}
		params.ZeroGrads()
		hs, _, caches := cell.RunSequence(xs, cell.NewLSTMState())
		y, hc := head.Forward(hs[T-1])
		diff := y[0] - first
		lastLoss = diff * diff
		dh := head.Backward(hc, []float64{2 * diff})
		dhs := make([][]float64, T)
		dhs[T-1] = dh
		cell.BackwardSequence(caches, dhs, LSTMState{})
		params.ClipGradNorm(5)
		opt.Step(params)
	}
	if lastLoss > 0.05 {
		t.Errorf("LSTM memory task final loss = %v", lastLoss)
	}
}

// readBlob reads a blob Params.Append wrote into ps.
func readBlob(ps Params, blob []byte) error {
	rd := wire.NewReader(blob)
	return ps.Read(&rd)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d1 := NewDense("d", 3, 2, rng)
	blob := d1.Params().Append(nil)
	d2 := NewDense("d", 3, 2, rand.New(rand.NewSource(99)))
	if err := readBlob(d2.Params(), blob); err != nil {
		t.Fatal(err)
	}
	for i := range d1.W.Value.Data {
		if d1.W.Value.Data[i] != d2.W.Value.Data[i] {
			t.Fatal("weights differ after load")
		}
	}
}

func TestLoadRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	d := NewDense("d", 3, 2, rng)
	blob := d.Params().Append(nil)
	// Wrong shape.
	other := NewDense("d", 4, 2, rng)
	if err := readBlob(other.Params(), blob); err == nil {
		t.Error("Load should reject shape mismatch")
	}
	// Wrong name.
	renamed := NewDense("e", 3, 2, rng)
	if err := readBlob(renamed.Params(), blob); err == nil {
		t.Error("Load should reject name mismatch")
	}
	// Wrong count.
	big := Params{NewParam("x", 1, 1)}
	big = append(big, d.Params()...)
	if err := readBlob(big, blob); err == nil {
		t.Error("Load should reject count mismatch")
	}
}

func TestSigmoidStable(t *testing.T) {
	if got := sigmoid(1000); got != 1 {
		t.Errorf("sigmoid(1000) = %v", got)
	}
	if got := sigmoid(-1000); got != 0 {
		t.Errorf("sigmoid(-1000) = %v", got)
	}
	if got := sigmoid(0); got != 0.5 {
		t.Errorf("sigmoid(0) = %v", got)
	}
}

// TestLoadRejectsBrokenSnapshot: a snapshot whose shapes or value arrays
// do not cover every named parameter, or whose values do not fill a
// parameter's shape, fails with an error naming that parameter and leaves
// the model untouched.
func TestLoadRejectsBrokenSnapshot(t *testing.T) {
	ps := Params{NewParam("a", 1, 2), NewParam("w", 2, 2)}
	// record appends one parameter of the blob: its name, then its shape
	// and values unless cut says the record ends after the name (1) or
	// after the shape (2).
	record := func(b []byte, name string, cut int, shape [2]int64, vals ...float64) []byte {
		b = wire.AppendSection(b, name)
		if cut != 1 {
			b = wire.AppendVarints(b, shape[0], shape[1])
		}
		if cut == 0 {
			b = wire.AppendFloats(b, vals)
		}
		return b
	}
	a := func(b []byte) []byte { return record(b, "a", 0, [2]int64{1, 2}, 1, 2) }
	w := func(b []byte) []byte { return record(b, "w", 0, [2]int64{2, 2}, 3, 4, 5, 6) }
	good := w(a([]byte{2}))
	for _, tc := range []struct {
		name, param string
		blob        []byte
	}{
		{"shapes short", "w", record(a([]byte{2}), "w", 1, [2]int64{})},
		{"no shapes", "a", w(record([]byte{2}, "a", 1, [2]int64{}))},
		{"data short", "w", record(a([]byte{2}), "w", 2, [2]int64{2, 2})},
		{"values short", "w", record(a([]byte{2}), "w", 0, [2]int64{2, 2}, 1)},
		{"values long", "a", w(record([]byte{2}, "a", 0, [2]int64{1, 2}, 1, 2, 3))},
		{"shapes long", "", record(w(a([]byte{3})), "x", 0, [2]int64{1, 1}, 0)},
	} {
		for _, p := range ps {
			for i := range p.Value.Data {
				p.Value.Data[i] = 9
			}
		}
		err := readBlob(ps, tc.blob)
		if err == nil {
			t.Errorf("%s: Load accepted the snapshot", tc.name)
			continue
		}
		if tc.param != "" && !strings.Contains(err.Error(), strconv.Quote(tc.param)) {
			t.Errorf("%s: error %q does not name parameter %q", tc.name, err, tc.param)
		}
		for _, p := range ps {
			for _, v := range p.Value.Data {
				if v != 9 {
					t.Fatalf("%s: rejected snapshot changed %s to %v", tc.name, p.Name, p.Value.Data)
				}
			}
		}
	}
	if err := readBlob(ps, good); err != nil {
		t.Fatalf("well-formed snapshot: %v", err)
	}
	if got := ps[1].Value.Data; got[0] != 3 || got[3] != 6 {
		t.Errorf("well-formed snapshot loaded %v", got)
	}
}
