package scaler

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/timeseries"
)

// guardQF wraps fakeQF with switchable failure and fan-corruption hooks,
// and records the history each call observed.
type guardQF struct {
	fakeQF
	fail     bool
	poison   func(*forecast.QuantileForecast)
	lastHist *timeseries.Series
	calls    int
}

func (g *guardQF) PredictQuantiles(hist *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	g.calls++
	g.lastHist = hist
	if g.fail {
		return nil, errors.New("forecaster down")
	}
	fan, err := g.fakeQF.PredictQuantiles(hist, h, levels)
	if err == nil && g.poison != nil {
		g.poison(fan)
	}
	return fan, err
}

func flatBase(v float64, h int) fakeQF {
	base := make([]float64, h)
	spread := make([]float64, h)
	for i := range base {
		base[i] = v
		spread[i] = 0.2
	}
	return fakeQF{name: "fake", Base: base, Spread: spread}
}

func newGuarded(qf forecast.QuantileForecaster, theta float64) (*Guard, *Robust) {
	inner := &Robust{Forecaster: qf, Tau: 0.9, Theta: theta}
	g := &Guard{Inner: inner, Config: GuardConfig{Theta: theta, Tau: 0.9}}
	return g, inner
}

func TestGuardTransparentPassthrough(t *testing.T) {
	h, theta := 4, 10.0
	hist := series(10, 12, 11, 10, 12, 11)

	bare := &Robust{Forecaster: &guardQF{fakeQF: flatBase(30, h)}, Tau: 0.9, Theta: theta}
	want, err := PlanRound(bare, hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}

	g, inner := newGuarded(&guardQF{fakeQF: flatBase(30, h)}, theta)
	round, err := g.PlanInto(hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := round.Nodes; !reflect.DeepEqual(got, want) {
		t.Errorf("guarded plan %v differs from bare plan %v", got, want)
	}
	if g.Mode() != ModeNormal {
		t.Errorf("mode = %v, want normal", g.Mode())
	}
	if g.Name() != inner.Name() {
		t.Errorf("guard name %q should be transparent, inner is %q", g.Name(), inner.Name())
	}
	if round.Fan == nil {
		t.Error("healthy round should expose the inner fan")
	}
	if g.LastReason() != "" {
		t.Errorf("healthy round has reason %q", g.LastReason())
	}
}

func TestGuardRepairsPoisonedFan(t *testing.T) {
	obs.DefaultDecisions.SetEnabled(true)
	defer func() {
		obs.DefaultDecisions.SetEnabled(false)
		obs.DefaultDecisions.Reset()
	}()
	h, theta := 4, 10.0
	qf := &guardQF{fakeQF: flatBase(30, h)}
	qf.poison = func(f *forecast.QuantileForecast) {
		f.Values[1][0] = math.NaN()
		f.Values[2][0] = math.Inf(1)
	}
	g, _ := newGuarded(qf, theta)
	round, err := g.PlanInto(series(10, 12, 11, 10, 12, 11), h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Mode() != ModeRepair {
		t.Fatalf("mode = %v, want repair", g.Mode())
	}
	for i, n := range round.Nodes {
		if n < 1 || n > 100 {
			t.Errorf("plan[%d] = %d after repair", i, n)
		}
	}
	d := round.Decision
	if d == nil || d.Degraded != "repair" {
		t.Fatalf("decision = %+v, want degraded repair", d)
	}
	if d.DegradedReason == "" {
		t.Error("degraded decision should carry a reason")
	}
	if got := d.Explain(0); got == "" {
		t.Error("degraded decision should explain")
	}
}

func TestGuardLastKnownGoodThenReactive(t *testing.T) {
	h, theta := 3, 10.0
	hist := series(10, 50, 30, 20)
	qf := &guardQF{fakeQF: flatBase(40, h)}
	g, _ := newGuarded(qf, theta)

	healthy, err := PlanRound(g, hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Forecaster dies: the guard replans from the retained fan.
	qf.fail = true
	plan, err := PlanRound(g, hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Mode() != ModeLastKnownGood {
		t.Fatalf("mode = %v, want last-known-good", g.Mode())
	}
	// The retained fan is the healthy round's; the tau-0.9 path replans to
	// the same allocations.
	if !reflect.DeepEqual(plan, healthy) {
		t.Errorf("last-known-good plan %v, healthy plan %v", plan, healthy)
	}

	// A fresh guard with no retained fan drops to the reactive rung.
	g2, _ := newGuarded(qf, theta)
	plan2, err := PlanRound(g2, hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Mode() != ModeReactive {
		t.Fatalf("mode = %v, want reactive", g2.Mode())
	}
	// ReactiveMax over the default window: max 50 / theta 10 = 5 nodes.
	for i, n := range plan2 {
		if n != 5 {
			t.Errorf("reactive plan[%d] = %d, want 5", i, n)
		}
	}
	if g2.DegradedRounds() != 1 {
		t.Errorf("degraded rounds = %d, want 1", g2.DegradedRounds())
	}
}

func TestGuardLadderExhausted(t *testing.T) {
	qf := &guardQF{fakeQF: flatBase(40, 3), fail: true}
	g, _ := newGuarded(qf, 10)
	// Empty history: the reactive rung cannot plan either.
	if _, err := PlanRound(g, series(), 3, nil); err == nil {
		t.Fatal("exhausted ladder should error")
	}
}

func TestGuardSanitizesHistory(t *testing.T) {
	h := 3
	qf := &guardQF{fakeQF: flatBase(40, h)}
	g, _ := newGuarded(qf, 10)
	hist := series(10, math.NaN(), 12, math.Inf(1), 11)
	if _, err := PlanRound(g, hist, h, nil); err != nil {
		t.Fatal(err)
	}
	if qf.lastHist == nil {
		t.Fatal("forecaster never saw history")
	}
	for i, v := range qf.lastHist.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("inner saw non-finite history value at %d: %v", i, v)
		}
	}
	// Carry-forward repair: the NaN at index 1 takes the previous value.
	if qf.lastHist.Values[1] != 10 || qf.lastHist.Values[3] != 12 {
		t.Errorf("repaired history = %v", qf.lastHist.Values)
	}
	// The caller's series is untouched.
	if !math.IsNaN(hist.Values[1]) {
		t.Error("sanitization mutated the caller's series")
	}
}

func TestGuardClampsBlowup(t *testing.T) {
	h, theta := 3, 10.0
	qf := &guardQF{fakeQF: flatBase(30, h)}
	qf.poison = func(f *forecast.QuantileForecast) {
		for _, row := range f.Values {
			for i := range row {
				row[i] *= 1e9
			}
		}
	}
	g, _ := newGuarded(qf, theta)
	// History max 50, default blowup factor 8: bound 400 -> at most 40
	// nodes despite the 1e9x fan.
	plan, err := PlanRound(g, series(10, 50, 30, 20), h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Mode() != ModeRepair {
		t.Fatalf("mode = %v, want repair", g.Mode())
	}
	for i, n := range plan {
		if n > 40 {
			t.Errorf("plan[%d] = %d exceeds the sanity bound", i, n)
		}
	}
}

// TestGuardLadderReentry pins the recovery direction of the ladder: a
// guard that has fallen all the way to the reactive rung (and one parked
// at last-known-good) must climb back to normal on the FIRST healthy
// round — degradation is per-round state, never latched.
func TestGuardLadderReentry(t *testing.T) {
	h, theta := 3, 10.0
	hist := series(10, 50, 30, 20)

	// Reactive -> normal. A fresh guard with a dead forecaster and no
	// retained fan lands on the bottom rung.
	qf := &guardQF{fakeQF: flatBase(40, h), fail: true}
	g, _ := newGuarded(qf, theta)
	if _, err := PlanRound(g, hist, h, nil); err != nil {
		t.Fatal(err)
	}
	if g.Mode() != ModeReactive {
		t.Fatalf("mode = %v, want reactive", g.Mode())
	}
	kinds := func() (out []string) {
		for _, e := range g.Events() {
			out = append(out, e.Kind)
		}
		return out
	}
	if got := kinds(); !reflect.DeepEqual(got, []string{"degraded"}) {
		t.Errorf("reactive round's events %v, want one degraded", got)
	}
	qf.fail = false
	plan, err := PlanRound(g, hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Mode() != ModeNormal {
		t.Fatalf("first healthy round after reactive: mode = %v, want normal", g.Mode())
	}
	if got := kinds(); !reflect.DeepEqual(got, []string{"recovered"}) {
		t.Errorf("recovering round's events %v, want one recovered", got)
	}
	if _, err := PlanRound(g, hist, h, nil); err != nil || len(g.Events()) > 0 {
		t.Errorf("a second healthy round: error %v, events %v; want neither", err, g.Events())
	}
	if g.LastReason() != "" {
		t.Errorf("recovered round still carries reason %q", g.LastReason())
	}
	// The recovered plan matches an always-healthy guard's bit for bit.
	ref, _ := newGuarded(&guardQF{fakeQF: flatBase(40, h)}, theta)
	want, err := PlanRound(ref, hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("recovered plan %v, healthy reference %v", plan, want)
	}
	if g.DegradedRounds() != 1 {
		t.Errorf("degraded rounds = %d, want 1 (recovery must stop the count)", g.DegradedRounds())
	}

	// Last-known-good -> normal, and the retained fan refreshes: a second
	// outage after recovery replans from the NEW healthy fan, not the
	// pre-outage one.
	qf2 := &guardQF{fakeQF: flatBase(40, h)}
	g2, _ := newGuarded(qf2, theta)
	if _, err := PlanRound(g2, hist, h, nil); err != nil {
		t.Fatal(err)
	}
	qf2.fail = true
	if _, err := PlanRound(g2, hist, h, nil); err != nil {
		t.Fatal(err)
	}
	if g2.Mode() != ModeLastKnownGood {
		t.Fatalf("mode = %v, want last-known-good", g2.Mode())
	}
	qf2.fail = false
	qf2.fakeQF = flatBase(80, h) // recovery observes a different workload
	healthy2, err := PlanRound(g2, hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Mode() != ModeNormal {
		t.Fatalf("first healthy round after LKG: mode = %v, want normal", g2.Mode())
	}
	qf2.fail = true
	replay, err := PlanRound(g2, hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Mode() != ModeLastKnownGood {
		t.Fatalf("mode = %v, want last-known-good", g2.Mode())
	}
	if !reflect.DeepEqual(replay, healthy2) {
		t.Errorf("second outage replans %v, want the refreshed fan's %v", replay, healthy2)
	}
}

// heldFan is an inner strategy that returns the fan it holds, the way a
// forecaster returns the fan it keeps and overwrites every round, or an
// error while fail is set.
type heldFan struct {
	fan  *forecast.QuantileForecast
	fail bool
}

func (*heldFan) Name() string { return "held-fan" }

func (s *heldFan) PlanInto(_ *timeseries.Series, h int, dst []int) (Round, error) {
	if s.fail {
		return Round{}, errors.New("forecaster down")
	}
	return Round{Nodes: resize(dst, h), Fan: s.fan}, nil
}

// rampFan is an h-step fan over levels whose values start at base and
// rise with the step and the level.
func rampFan(h int, levels []float64, base float64) *forecast.QuantileForecast {
	f := &forecast.QuantileForecast{Levels: append([]float64(nil), levels...)}
	for t := 0; t < h; t++ {
		row := make([]float64, len(levels))
		for i := range row {
			row[i] = base + float64(t) + 10*float64(i)
		}
		f.Values = append(f.Values, row)
		f.Mean = append(f.Mean, row[0])
	}
	return f
}

func cloneFan(f *forecast.QuantileForecast) *forecast.QuantileForecast {
	c := &forecast.QuantileForecast{Levels: append([]float64(nil), f.Levels...), Mean: append([]float64(nil), f.Mean...)}
	for _, row := range f.Values {
		c.Values = append(c.Values, append([]float64(nil), row...))
	}
	return c
}

// TestGuardLastGoodInPlace: a healthy fan of the retained copy's shape is
// copied into the rows already kept, and the copy owes nothing to the
// source, which its forecaster overwrites next round. A horizon or
// level-count change carves the copy afresh.
func TestGuardLastGoodInPlace(t *testing.T) {
	const h, theta = 4, 10.0
	hist := series(10, 50, 30, 20)
	levels := []float64{0.5, 0.9}
	inner := &heldFan{fan: rampFan(h, levels, 30)}
	g := &Guard{Inner: inner, Config: GuardConfig{Theta: theta, Tau: 0.9}}
	healthy := func(f *forecast.QuantileForecast, hh int) {
		t.Helper()
		inner.fan, inner.fail = f, false
		if _, err := g.PlanInto(hist, hh, nil); err != nil || g.Mode() != ModeNormal {
			t.Fatalf("healthy round: mode %v, err %v", g.Mode(), err)
		}
		if !reflect.DeepEqual(g.lastGoodFan, f) {
			t.Fatalf("retained fan %+v, want %+v", g.lastGoodFan, f)
		}
	}
	healthy(inner.fan, h)
	kept := g.lastGoodFan

	src := rampFan(h, levels, 60)
	want := cloneFan(src)
	healthy(src, h)
	for i := range kept.Values {
		if &g.lastGoodFan.Values[i][0] != &kept.Values[i][0] {
			t.Fatalf("same-shape round moved row %d: it must be copied into the kept row", i)
		}
	}

	// The forecaster overwrites its fan; the fallback still plans from
	// the healthy values, exactly as a guard that retained a private
	// clone of them.
	for _, row := range src.Values {
		for i := range row {
			row[i] = 1e6
		}
	}
	inner.fail = true
	round, err := g.PlanInto(hist, h, nil)
	if err != nil || g.Mode() != ModeLastKnownGood {
		t.Fatalf("failing round: mode %v, err %v", g.Mode(), err)
	}
	ref := &Guard{Inner: &heldFan{fan: want}, Config: g.Config}
	if _, err := ref.PlanInto(hist, h, nil); err != nil {
		t.Fatal(err)
	}
	ref.Inner.(*heldFan).fail = true
	wantRound, err := ref.PlanInto(hist, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(round.Nodes, wantRound.Nodes) || !reflect.DeepEqual(round.Fan, want) {
		t.Errorf("last-known-good round %v from %+v, want %v from %+v", round.Nodes, round.Fan, wantRound.Nodes, want)
	}

	// A longer horizon, then a shorter one, then another level count:
	// each retains exactly the new fan.
	healthy(rampFan(h+2, levels, 70), h+2)
	healthy(rampFan(h-1, levels, 80), h-1)
	healthy(rampFan(h-1, []float64{0.5, 0.9, 0.99}, 90), h-1)
	healthy(rampFan(h-1, []float64{0.9}, 100), h-1)
}
