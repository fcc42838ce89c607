package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"robustscale/internal/metrics"
)

func TestCalibrationValidation(t *testing.T) {
	if _, err := NewCalibration(nil, 10); err == nil {
		t.Error("empty levels accepted")
	}
	if _, err := NewCalibration([]float64{0.5}, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewCalibration([]float64{1.5}, 10); err == nil {
		t.Error("level outside (0,1) accepted")
	}
	if _, err := NewCalibration([]float64{0.5, math.NaN()}, 10); err == nil {
		t.Error("NaN level accepted")
	}
	c, err := NewCalibration([]float64{0.5, 0.9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(1, []float64{1}); err == nil {
		t.Error("mismatched quantile row accepted")
	}
}

func TestCalibrationCoverage(t *testing.T) {
	c, err := NewCalibration([]float64{0.5, 0.9}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Four steps: the 0.9 forecast covers all four actuals, the 0.5
	// forecast covers two of four.
	steps := []struct {
		actual float64
		row    []float64 // q0.5, q0.9
	}{
		{10, []float64{12, 20}}, // both cover
		{10, []float64{8, 15}},  // only 0.9 covers
		{10, []float64{10, 11}}, // both cover (boundary inclusive)
		{10, []float64{9, 12}},  // only 0.9 covers
	}
	for _, s := range steps {
		if err := c.Observe(s.actual, s.row); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	if snap.Steps != 4 {
		t.Fatalf("steps = %d, want 4", snap.Steps)
	}
	if got := snap.Coverage[0]; got != 0.5 {
		t.Errorf("coverage(0.5) = %v, want 0.5", got)
	}
	if got := snap.Coverage[1]; got != 1 {
		t.Errorf("coverage(0.9) = %v, want 1", got)
	}
}

// TestCalibrationRollingEviction pins the incremental ring bookkeeping
// against a from-scratch recomputation over the retained window.
func TestCalibrationRollingEviction(t *testing.T) {
	levels := []float64{0.5, 0.9}
	const window = 8
	c, err := NewCalibration(levels, window)
	if err != nil {
		t.Fatal(err)
	}
	var actuals []float64
	var rows [][]float64
	for i := 0; i < 25; i++ {
		actual := 100 + 13*math.Sin(float64(i))
		row := []float64{actual + float64(i%7) - 3, actual + 5}
		actuals = append(actuals, actual)
		rows = append(rows, row)
		if err := c.Observe(actual, row); err != nil {
			t.Fatal(err)
		}
	}

	// Recompute over the last `window` observations from scratch.
	tail := actuals[len(actuals)-window:]
	tailRows := rows[len(rows)-window:]
	wantCov := make([]float64, len(levels))
	wantWQL := 0.0
	actualSum := 0.0
	for _, a := range tail {
		actualSum += a
	}
	for li, tau := range levels {
		covered, ql := 0, 0.0
		for i, a := range tail {
			if tailRows[i][li] >= a {
				covered++
			}
			ql += metrics.Pinball(tau, a, tailRows[i][li])
		}
		wantCov[li] = float64(covered) / window
		wantWQL += 2 * ql / actualSum
	}
	wantWQL /= float64(len(levels))

	snap := c.Snapshot()
	if snap.Steps != window {
		t.Fatalf("steps = %d, want %d", snap.Steps, window)
	}
	for li := range levels {
		if math.Abs(snap.Coverage[li]-wantCov[li]) > 1e-12 {
			t.Errorf("coverage[%d] = %v, want %v", li, snap.Coverage[li], wantCov[li])
		}
	}
	if math.Abs(snap.WQL-wantWQL) > 1e-9 {
		t.Errorf("rolling wQL = %v, want %v", snap.WQL, wantWQL)
	}
}

// TestCalibrationFold: a fold of one window exports that window's
// Snapshot; a fold of several pools each level's counts over the windows
// that carry it; and after its first Publish a fold allocates nothing.
func TestCalibrationFold(t *testing.T) {
	a, err := NewCalibration([]float64{0.5, 0.9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCalibration([]float64{0.9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct{ actual, q5, q9 float64 }{{10, 12, 20}, {10, 8, 15}} {
		if err := a.Observe(s.actual, []float64{s.q5, s.q9}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q9 := range []float64{18, 25, 19} {
		if err := b.Observe(20, []float64{q9}); err != nil {
			t.Fatal(err)
		}
	}
	var f CalibrationFold
	read := func() (cov, covErr []float64, wql, samples float64) {
		for _, l := range f.levels {
			cov, covErr = append(cov, l.coverage.Value()), append(covErr, l.coverageError.Value())
		}
		return cov, covErr, f.wql.Value(), f.samples.Value()
	}

	f.Add(nil)
	f.Add(a)
	f.Publish()
	snap := a.Snapshot()
	cov, covErr, wql, samples := read()
	for i, tau := range snap.Levels {
		if cov[i] != snap.Coverage[i] || covErr[i] != snap.Coverage[i]-tau {
			t.Errorf("one window, q%g: coverage %v error %v, want %v and %v", tau, cov[i], covErr[i], snap.Coverage[i], snap.Coverage[i]-tau)
		}
	}
	if wql != snap.WQL || samples != float64(snap.Steps) {
		t.Errorf("one window: wQL %v samples %v, want %v and %d", wql, samples, snap.WQL, snap.Steps)
	}

	f.Add(a)
	f.Add(b)
	f.Publish()
	cov, covErr, wql, samples = read()
	if cov[0] != 0.5 || cov[1] != 3.0/5 || covErr[1] != cov[1]-0.9 || samples != 5 {
		t.Errorf("pooled: coverage %v error %v samples %v, want [0.5 0.6], 0.6-0.9 and 5", cov, covErr, samples)
	}
	pin9 := metrics.Pinball(0.9, 10, 20) + metrics.Pinball(0.9, 10, 15) +
		metrics.Pinball(0.9, 20, 18) + metrics.Pinball(0.9, 20, 25) + metrics.Pinball(0.9, 20, 19)
	want := (2*(metrics.Pinball(0.5, 10, 12)+metrics.Pinball(0.5, 10, 8))/20 + 2*pin9/80) / 2
	if math.Abs(wql-want) > 1e-12 {
		t.Errorf("pooled wQL %v, want %v", wql, want)
	}

	if allocs := testing.AllocsPerRun(20, func() {
		f.Add(a)
		f.Add(b)
		f.Publish()
	}); allocs != 0 {
		t.Errorf("a steady-state fold allocates %v times", allocs)
	}
}

// TestObserveStepsMatchesObserve: folding rounds of steps under one lock
// leaves the window exactly where the same steps observed one by one
// leave it — eviction, non-finite skips and the saved bytes included —
// and a round holding one row of the wrong width observes nothing.
func TestObserveStepsMatchesObserve(t *testing.T) {
	levels := []float64{0.5, 0.9}
	one, err := NewCalibration(levels, 5)
	if err != nil {
		t.Fatal(err)
	}
	round, err := NewCalibration(levels, 5)
	if err != nil {
		t.Fatal(err)
	}
	var actuals []float64
	var rows [][]float64
	for i := 0; i < 17; i++ {
		a := float64(i%7) + 0.5
		row := []float64{float64(i % 5), float64(i%5) + 2}
		switch i {
		case 4:
			a = math.NaN()
		case 9:
			row[1] = math.Inf(1)
		}
		actuals, rows = append(actuals, a), append(rows, row)
		if err := one.Observe(a, row); err != nil {
			t.Fatal(err)
		}
	}
	for start := 0; start < len(actuals); start += 4 {
		end := min(start+4, len(actuals))
		if err := round.ObserveSteps(actuals[start:end], rows[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	var a, b bytes.Buffer
	if err := one.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := round.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || !reflect.DeepEqual(one.Snapshot(), round.Snapshot()) {
		t.Errorf("rounds of steps: %+v, one by one: %+v", round.Snapshot(), one.Snapshot())
	}

	before := round.Snapshot()
	if err := round.ObserveSteps([]float64{1, 2}, [][]float64{{1, 2}, {1}}); err == nil {
		t.Error("a row of the wrong width was accepted")
	}
	if err := round.ObserveSteps([]float64{1, 2}, [][]float64{{1, 2}}); err == nil {
		t.Error("two actuals for one row were accepted")
	}
	if got := round.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Errorf("a refused round moved the window: %+v, was %+v", got, before)
	}
}

// refWindow is the rolling window written the plain way, one step at a
// time: evict the oldest step from every sum, then add the new one.
type refWindow struct {
	levels, actuals, preds, pinball []float64
	covered                         []int
	next, count                     int
	sum                             float64
	skipped                         uint64
}

func (r *refWindow) observe(actual float64, row []float64) {
	for _, v := range append([]float64{actual}, row...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.skipped++
			return
		}
	}
	l, window := len(r.levels), len(r.actuals)
	kept := r.preds[r.next*l : (r.next+1)*l]
	if r.count == window {
		old := r.actuals[r.next]
		r.sum -= old
		for i, tau := range r.levels {
			if kept[i] >= old {
				r.covered[i]--
			}
			r.pinball[i] -= metrics.Pinball(tau, old, kept[i])
		}
	} else {
		r.count++
	}
	r.actuals[r.next] = actual
	copy(kept, row)
	r.sum += actual
	for i, tau := range r.levels {
		if row[i] >= actual {
			r.covered[i]++
		}
		r.pinball[i] += metrics.Pinball(tau, actual, row[i])
	}
	r.next = (r.next + 1) % window
}

// TestObserveStepsMatchesReference: every running sum of a window of
// one-step buckets fed whole rounds, some holding a non-finite value, has
// the bits of the plain one-step-at-a-time window, through many
// evictions.
func TestObserveStepsMatchesReference(t *testing.T) {
	levels := []float64{0.5, 0.9, 0.99}
	const window = 7
	c, err := NewCalibration(levels, window)
	if err != nil {
		t.Fatal(err)
	}
	l := len(levels)
	ref := &refWindow{levels: levels, actuals: make([]float64, window), preds: make([]float64, window*l),
		pinball: make([]float64, l), covered: make([]int, l)}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(12)
		actuals, rows := make([]float64, n), make([][]float64, n)
		for s := range actuals {
			actuals[s] = rng.ExpFloat64() * 100
			rows[s] = make([]float64, l)
			for i := range rows[s] {
				rows[s][i] = rng.NormFloat64()*30 + 100 + 20*float64(i)
			}
			if rng.Intn(25) == 0 {
				bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
				if i := rng.Intn(l + 1); i == l {
					actuals[s] = bad
				} else {
					rows[s][i] = bad
				}
			}
			ref.observe(actuals[s], rows[s])
		}
		if err := c.ObserveSteps(actuals, rows); err != nil {
			t.Fatal(err)
		}
		same := int(c.sums[0]) == ref.count && c.skipped == ref.skipped &&
			math.Float64bits(c.sums[1]) == math.Float64bits(ref.sum)
		for i := range levels {
			same = same && int(c.sums[2+i]) == ref.covered[i] && math.Float64bits(c.sums[2+l+i]) == math.Float64bits(ref.pinball[i])
		}
		if !same {
			t.Fatalf("round %d: window record %v, plain window %v/%v/%v", round,
				c.sums[:2+2*l], ref.covered, ref.pinball, ref.sum)
		}
	}
}

// oneDay is the fleet's calibration window: 144 ten-minute steps, which
// the tracker cuts into 12 buckets of 12.
const oneDay = 144

// ringStep is one graded step of matchStepRing's input.
type ringStep struct {
	actual float64
	row    []float64
}

// matchStepRing feeds steps to a one-day tracker, through ObserveSteps in
// rounds of 12 or through Observe one at a time, and to the plain step
// ring, and at every 12-step boundary of admitted steps holds the tracker
// to the ring: the same step, skipped and covered counts, and the rolling
// wQL within 1e-12 relative.
func matchStepRing(t *testing.T, levels []float64, steps []ringStep, perStep bool) {
	t.Helper()
	c, err := NewCalibration(levels, oneDay)
	if err != nil {
		t.Fatal(err)
	}
	l := len(levels)
	ref := &refWindow{levels: levels, actuals: make([]float64, oneDay), preds: make([]float64, oneDay*l),
		pinball: make([]float64, l), covered: make([]int, l)}
	check := func(at int) {
		t.Helper()
		admitted := int(uint64(at) - ref.skipped)
		if admitted%c.bucket != 0 {
			return
		}
		snap := c.Snapshot()
		refWQL := 0.0
		for i := range levels {
			if covered := int(c.sums[2+i]); covered != ref.covered[i] {
				t.Fatalf("after %d steps: level %d covers %d steps, the ring %d", at, i, covered, ref.covered[i])
			}
			if ref.sum > 0 {
				refWQL += 2 * ref.pinball[i] / ref.sum
			}
		}
		refWQL /= float64(l)
		if snap.Steps != ref.count || snap.Skipped != ref.skipped {
			t.Fatalf("after %d steps: %d held and %d skipped, the ring %d and %d", at, snap.Steps, snap.Skipped, ref.count, ref.skipped)
		}
		if math.Abs(snap.WQL-refWQL) > 1e-12*math.Abs(refWQL) {
			t.Fatalf("after %d steps: rolling wQL %v, the ring %v", at, snap.WQL, refWQL)
		}
	}
	if perStep {
		for s, st := range steps {
			ref.observe(st.actual, st.row)
			if err := c.Observe(st.actual, st.row); err != nil {
				t.Fatal(err)
			}
			check(s + 1)
		}
		return
	}
	for start := 0; start < len(steps); start += 12 {
		round := steps[start:min(start+12, len(steps))]
		actuals, rows := make([]float64, len(round)), make([][]float64, len(round))
		for s, st := range round {
			actuals[s], rows[s] = st.actual, st.row
			ref.observe(st.actual, st.row)
		}
		if err := c.ObserveSteps(actuals, rows); err != nil {
			t.Fatal(err)
		}
		check(start + len(round))
	}
}

// ringSteps reads graded steps from bytes, 1+len(levels) per step: an
// actual in [50, 305) and each level's forecast a non-zero distance from
// it, so no window sum cancels to nothing. A 255 actual byte is NaN and a
// zero forecast byte +Inf.
func ringSteps(data []byte, levels int) []ringStep {
	var steps []ringStep
	for ; len(data) > levels; data = data[1+levels:] {
		st := ringStep{actual: 50 + float64(data[0]), row: make([]float64, levels)}
		if data[0] == 255 {
			st.actual = math.NaN()
		}
		for i, d := range data[1 : 1+levels] {
			st.row[i] = 50 + float64(data[0]) + float64(d) - 127.5
			if d == 0 {
				st.row[i] = math.Inf(1)
			}
		}
		steps = append(steps, st)
	}
	return steps
}

// TestBucketsMatchStepRing drives the one-day tracker and the plain step
// ring through ten days of random rounds of 12 steps, and through
// per-step Observe calls with non-finite values among them.
func TestBucketsMatchStepRing(t *testing.T) {
	levels := []float64{0.1, 0.5, 0.9}
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 10*oneDay*(1+len(levels)))
	for i := range data {
		data[i] = byte(1 + rng.Intn(254))
	}
	matchStepRing(t, levels, ringSteps(data, len(levels)), false)
	for i := 0; i < 40; i++ {
		data[rng.Intn(len(data))] = []byte{0, 255}[rng.Intn(2)]
	}
	matchStepRing(t, levels, ringSteps(data, len(levels)), true)
}

// FuzzBucketsMatchStepRing is TestBucketsMatchStepRing on fuzzer-chosen
// steps: the first byte picks rounds or single steps.
func FuzzBucketsMatchStepRing(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	seed := make([]byte, 1+2*oneDay*3)
	rng.Read(seed)
	f.Add(seed)
	seed = append([]byte{1}, seed[1:]...)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		matchStepRing(t, []float64{0.5, 0.9}, ringSteps(data[1:], 2), data[0]%2 == 1)
	})
}

func TestCalibrationSkipsNonFinite(t *testing.T) {
	c, err := NewCalibration([]float64{0.5, 0.9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(10, []float64{12, 20}); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(math.NaN(), []float64{12, 20}); err != nil {
		t.Fatalf("NaN actual should skip, not error: %v", err)
	}
	if err := c.Observe(10, []float64{math.Inf(1), 20}); err != nil {
		t.Fatalf("Inf quantile should skip, not error: %v", err)
	}
	snap := c.Snapshot()
	if snap.Steps != 1 {
		t.Errorf("window steps = %d, want 1 (bad rows skipped)", snap.Steps)
	}
	if snap.Skipped != 2 {
		t.Errorf("skipped = %d, want 2", snap.Skipped)
	}
	if math.IsNaN(snap.WQL) || math.IsNaN(snap.Coverage[0]) {
		t.Errorf("rolling stats poisoned: %+v", snap)
	}
}
