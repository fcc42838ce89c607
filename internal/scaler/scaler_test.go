package scaler

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func series(vals ...float64) *timeseries.Series {
	return timeseries.New("test", t0, timeseries.DefaultStep, vals)
}

// fakeQF is a deterministic QuantileForecaster for strategy tests: the
// forecast at quantile tau for step t is Base[t] * (1 + Spread*(tau-0.5)).
type fakeQF struct {
	name   string
	Base   []float64
	Spread []float64 // per-step spread; wider means more "uncertain"
}

func (f *fakeQF) Name() string                 { return f.name }
func (f *fakeQF) Fit(*timeseries.Series) error { return nil }
func (f *fakeQF) Predict(_ *timeseries.Series, h int) ([]float64, error) {
	out := make([]float64, h)
	copy(out, f.Base)
	return out, nil
}

func (f *fakeQF) PredictQuantiles(_ *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	q := &forecast.QuantileForecast{
		Levels: levels,
		Values: make([][]float64, h),
		Mean:   make([]float64, h),
	}
	for t := 0; t < h; t++ {
		row := make([]float64, len(levels))
		for i, tau := range levels {
			row[i] = f.Base[t] * (1 + f.Spread[t]*(tau-0.5))
		}
		q.Values[t] = row
		q.Mean[t] = f.Base[t]
	}
	return q, nil
}

// fakePoint is a deterministic point forecaster.
type fakePoint struct {
	name string
	pred []float64
	errs error
}

func (f *fakePoint) Name() string                 { return f.name }
func (f *fakePoint) Fit(*timeseries.Series) error { return nil }
func (f *fakePoint) Predict(_ *timeseries.Series, h int) ([]float64, error) {
	if f.errs != nil {
		return nil, f.errs
	}
	out := make([]float64, h)
	copy(out, f.pred)
	return out, nil
}

func TestReactiveMax(t *testing.T) {
	s := series(10, 50, 30, 20)
	r := &ReactiveMax{Window: 3, Theta: 10}
	plan, err := PlanRound(r, s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Max of last 3 = 50 -> 5 nodes, flat.
	if plan[0] != 5 || plan[1] != 5 {
		t.Errorf("plan = %v", plan)
	}
	if r.Name() != "reactive-max" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestReactiveMaxErrors(t *testing.T) {
	r := &ReactiveMax{Window: 3, Theta: 10}
	if _, err := PlanRound(r, series(), 1, nil); err != ErrNoHistory {
		t.Errorf("err = %v", err)
	}
	bad := &ReactiveMax{Theta: 0}
	if _, err := PlanRound(bad, series(1), 1, nil); err == nil {
		t.Error("zero theta should fail")
	}
}

func TestReactiveAvgWeightsRecent(t *testing.T) {
	// Recent low values should pull the weighted average down versus the
	// plain mean.
	s := series(100, 100, 100, 10, 10, 10)
	r := &ReactiveAvg{Window: 6, HalfLife: 2, Theta: 10}
	plan, err := PlanRound(r, s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Plain mean = 55 -> 6 nodes; decayed mean < 55 -> fewer nodes.
	if plan[0] >= 6 {
		t.Errorf("plan = %v, want fewer nodes than plain mean", plan)
	}
	if plan[0] < 1 {
		t.Errorf("plan = %v", plan)
	}
}

func TestReactiveAvgDefaults(t *testing.T) {
	r := &ReactiveAvg{Theta: 10}
	plan, err := PlanRound(r, series(50, 50, 50, 50, 50, 50, 50), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan {
		if c != 5 {
			t.Errorf("plan = %v, want flat 5s", plan)
		}
	}
	if _, err := PlanRound(r, series(), 1, nil); err != ErrNoHistory {
		t.Errorf("err = %v", err)
	}
}

func TestPredictivePlansFromForecast(t *testing.T) {
	p := &Predictive{Forecaster: &fakePoint{name: "fp", pred: []float64{15, 25, 35}}, Theta: 10}
	plan, err := PlanRound(p, series(1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 4}
	for i, w := range want {
		if plan[i] != w {
			t.Errorf("plan = %v", plan)
		}
	}
	if p.Name() != "fp" {
		t.Errorf("Name = %q", p.Name())
	}
	bad := &Predictive{Forecaster: &fakePoint{}, Theta: 0}
	if _, err := PlanRound(bad, series(1), 1, nil); err == nil {
		t.Error("zero theta should fail")
	}
}

func TestPredictiveObserveFeedsPadding(t *testing.T) {
	base := &fakePoint{name: "fp", pred: []float64{10, 10}}
	padded := forecast.NewPadded(base)
	p := &Predictive{Forecaster: padded, Theta: 10}
	if _, err := PlanRound(p, series(1), 2, nil); err != nil {
		t.Fatal(err)
	}
	// The next history realized a workload 50% above the forecast: the
	// padding observes it before the next plan.
	plan, err := PlanRound(p, series(1, 15, 15), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pad := padded.Pad(); pad <= 0.4 {
		t.Errorf("pad = %v, want ~0.5", pad)
	}
	if plan[0] < 2 {
		t.Errorf("padded plan = %v, want >= 2 nodes", plan)
	}
}

func TestRobustUsesQuantileLevel(t *testing.T) {
	qf := &fakeQF{name: "fq", Base: []float64{100, 100}, Spread: []float64{0.5, 0.5}}
	// tau=0.9: forecast = 100*(1+0.5*0.4) = 120 -> 12 nodes at theta 10.
	r := &Robust{Forecaster: qf, Tau: 0.9, Theta: 10}
	plan, err := PlanRound(r, series(1), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan[0] != 12 || plan[1] != 12 {
		t.Errorf("plan = %v", plan)
	}
	if r.Name() != "fq-0.9" {
		t.Errorf("Name = %q", r.Name())
	}
	// Lower tau allocates less.
	low := &Robust{Forecaster: qf, Tau: 0.6, Theta: 10}
	lowPlan, err := PlanRound(low, series(1), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lowPlan[0] >= plan[0] {
		t.Errorf("tau 0.6 plan %v should be below tau 0.9 plan %v", lowPlan, plan)
	}
}

func TestRobustValidation(t *testing.T) {
	qf := &fakeQF{Base: []float64{1}, Spread: []float64{0}}
	if _, err := PlanRound(&Robust{Forecaster: qf, Tau: 0.9, Theta: 0}, series(1), 1, nil); err == nil {
		t.Error("zero theta should fail")
	}
	if _, err := PlanRound(&Robust{Forecaster: qf, Tau: 1.5, Theta: 10}, series(1), 1, nil); err == nil {
		t.Error("tau out of range should fail")
	}
	if _, err := PlanRound(&Robust{Forecaster: qf, Tau: math.NaN(), Theta: 10}, series(1), 1, nil); err == nil {
		t.Error("NaN tau should fail")
	}
}

func TestAdaptiveSwitchesOnUncertainty(t *testing.T) {
	// Step 0 has a narrow fan (confident), step 1 a wide fan (uncertain).
	qf := &fakeQF{name: "fq", Base: []float64{100, 100}, Spread: []float64{0.05, 1.0}}
	a := &Adaptive{
		Forecaster: qf, Tau1: 0.6, Tau2: 0.95, Rho: 5, Theta: 10,
		Levels: forecast.ScalingLevels,
	}
	plan, err := PlanRound(a, series(1), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Confident step uses tau1=0.6: 100*(1+0.05*0.1)=100.5 -> 11 nodes.
	// Uncertain step uses tau2=0.95: 100*(1+1.0*0.45)=145 -> 15 nodes.
	if plan[0] >= plan[1] {
		t.Errorf("plan = %v, want uncertain step to allocate more", plan)
	}
	if plan[1] != 15 {
		t.Errorf("uncertain step = %d, want 15", plan[1])
	}
}

func TestAdaptiveValidation(t *testing.T) {
	qf := &fakeQF{Base: []float64{1}, Spread: []float64{0}}
	cases := []*Adaptive{
		{Forecaster: qf, Tau1: 0.6, Tau2: 0.9, Rho: 1, Theta: 0},
		{Forecaster: qf, Tau1: 0.9, Tau2: 0.6, Rho: 1, Theta: 10},
		{Forecaster: qf, Tau1: 0, Tau2: 0.9, Rho: 1, Theta: 10},
		{Forecaster: qf, Tau1: math.NaN(), Tau2: 0.9, Rho: 1, Theta: 10},
		{Forecaster: qf, Tau1: 0.6, Tau2: math.NaN(), Rho: 1, Theta: 10},
	}
	for i, a := range cases {
		if _, err := PlanRound(a, series(1), 1, nil); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestUncertaintiesMatchSpread(t *testing.T) {
	qf := &fakeQF{Base: []float64{100, 100}, Spread: []float64{0.1, 0.8}}
	f, err := qf.PredictQuantiles(nil, 2, forecast.ScalingLevels)
	if err != nil {
		t.Fatal(err)
	}
	us, err := Uncertainties(f)
	if err != nil {
		t.Fatal(err)
	}
	if us[0] >= us[1] {
		t.Errorf("uncertainties = %v, want increasing with spread", us)
	}
	if us[0] < 0 {
		t.Errorf("U = %v", us[0])
	}
}

func TestEvaluateRolling(t *testing.T) {
	// Constant workload 50, theta 10 -> min 5 nodes.
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = 50
	}
	s := series(vals...)
	qf := &fakeQF{name: "fq", Base: repeat(50, 10), Spread: repeat(0, 10)}
	strat := &Robust{Forecaster: qf, Tau: 0.9, Theta: 10}
	res, err := Evaluate(strat, s, EvalConfig{Theta: 10, Horizon: 10, Start: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Steps != 20 {
		t.Errorf("steps = %d", res.Report.Steps)
	}
	if res.Report.UnderProvisionRate != 0 {
		t.Errorf("under rate = %v", res.Report.UnderProvisionRate)
	}
	if res.Report.OverProvisionRate != 0 {
		t.Errorf("over rate = %v (perfect forecast of constant load)", res.Report.OverProvisionRate)
	}
	if res.Strategy != "fq-0.9" {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

func TestEvaluateObserverCalled(t *testing.T) {
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = 20
	}
	s := series(vals...)
	base := &fakePoint{name: "fp", pred: repeat(10, 10)}
	padded := forecast.NewPadded(base)
	strat := &Predictive{Forecaster: padded, Theta: 10}
	if _, err := Evaluate(strat, s, EvalConfig{Theta: 10, Horizon: 10, Start: 10}); err != nil {
		t.Fatal(err)
	}
	// The base forecaster predicts 10, actuals are 20: padding learned.
	if padded.Pad() <= 0 {
		t.Errorf("pad = %v, want positive after evaluation", padded.Pad())
	}
}

// TestPaddedEvaluatePinned pins the allocations Evaluate produces for the
// padding-enhanced baseline on a seeded Alibaba-style trace: 8 rounds of
// 36 steps whose padding learns from the load each round realized. How
// the padding is fed may change; what it allocates may not.
func TestPaddedEvaluatePinned(t *testing.T) {
	cfg := trace.AlibabaStyle(11)
	cfg.Days, cfg.Units = 8, 16
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tr.Series(trace.CPU)
	if err != nil {
		t.Fatal(err)
	}
	const start, h = 6 * 144, 36
	base := forecast.NewSeasonalNaive(144)
	if err := base.Fit(s.Slice(0, start)); err != nil {
		t.Fatal(err)
	}
	padded := forecast.NewPadded(base)
	if err := padded.Bootstrap(s.Slice(0, start), h, 2); err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(&Predictive{Forecaster: padded, Theta: 10}, s, EvalConfig{Theta: 10, Horizon: h, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	sum := fnv.New64a()
	for _, a := range res.Allocations {
		fmt.Fprintf(sum, "%d,", a)
	}
	if got, want := fmt.Sprintf("%d %016x", len(res.Allocations), sum.Sum64()), "288 f27a5d1025d6bcad"; got != want {
		t.Errorf("padded allocations (count, hash) = %s, want %s", got, want)
	}
	if padded.Pad() <= 0 {
		t.Errorf("pad = %v after the evaluation, want positive", padded.Pad())
	}
}

func TestEvaluateValidation(t *testing.T) {
	s := series(1, 2, 3)
	strat := &ReactiveMax{Theta: 10}
	if _, err := Evaluate(strat, s, EvalConfig{Theta: 10, Horizon: 0, Start: 1}); err == nil {
		t.Error("zero horizon should fail")
	}
	if _, err := Evaluate(strat, s, EvalConfig{Theta: 10, Horizon: 1, Start: 0}); err == nil {
		t.Error("zero start should fail")
	}
	if _, err := Evaluate(strat, s, EvalConfig{Theta: 10, Horizon: 5, Start: 2}); err == nil {
		t.Error("too-short span should fail")
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestRoundFanAndDecision pins what a Round carries besides the plan:
// a fan exactly for the quantile-driven strategies, and through a guard
// the fan and decision record of whichever rung drove the round.
func TestRoundFanAndDecision(t *testing.T) {
	enableDecisions(t)
	base := []float64{100, 200, 300}
	spread := []float64{0.1, 0.1, 0.1}
	qf := func() *fakeQF { return &fakeQF{name: "f", Base: base, Spread: spread} }
	hist := series(50, 60, 70)
	for _, tc := range []struct {
		strat   Strategy
		wantFan bool
	}{
		{&ReactiveMax{Window: 3, Theta: 100}, false},
		{&ReactiveAvg{Window: 3, Theta: 100}, false},
		{&Predictive{Forecaster: &fakePoint{name: "p", pred: base}, Theta: 100}, false},
		{&Robust{Forecaster: qf(), Tau: 0.9, Theta: 100}, true},
		{&Adaptive{Forecaster: qf(), Tau1: 0.7, Tau2: 0.95, Rho: 1, Theta: 100}, true},
	} {
		round, err := tc.strat.PlanInto(hist, 3, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.strat.Name(), err)
		}
		if got := round.Fan != nil; got != tc.wantFan {
			t.Errorf("%s: round has a fan = %v, want %v", tc.strat.Name(), got, tc.wantFan)
		}
		if tc.wantFan && round.Fan.Horizon() != 3 {
			t.Errorf("%s: fan horizon %d, want 3", tc.strat.Name(), round.Fan.Horizon())
		}
		if round.Decision == nil || len(round.Decision.Nodes) != 3 {
			t.Errorf("%s: decision = %+v", tc.strat.Name(), round.Decision)
		}
	}

	// Through the guard, rung by rung.
	gq := &guardQF{fakeQF: *qf()}
	g, inner := newGuarded(gq, 100)
	plan := func() Round {
		t.Helper()
		round, err := g.PlanInto(hist, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return round
	}
	normal := plan()
	if g.Mode() != ModeNormal || normal.Fan == nil || normal.Fan != inner.lastFan || normal.Decision != inner.lastDecision {
		t.Errorf("normal round (mode %v) should be the inner round untouched: %+v", g.Mode(), normal)
	}
	gq.poison = func(f *forecast.QuantileForecast) { f.Values[1][0] = math.NaN() }
	repair := plan()
	if g.Mode() != ModeRepair || repair.Fan != inner.lastFan || math.IsNaN(repair.Fan.Values[1][0]) {
		t.Errorf("repair round (mode %v) should carry the inner fan, repaired in place", g.Mode())
	}
	if d := repair.Decision; d == nil || d == inner.lastDecision || d.Degraded != "repair" {
		t.Errorf("repair round decision = %+v, want the guard's record", d)
	}
	gq.poison, gq.fail = nil, true
	lkg := plan()
	if g.Mode() != ModeLastKnownGood || lkg.Fan != g.lastGoodFan || lkg.Fan == nil {
		t.Errorf("last-known-good round (mode %v) should carry the retained fan", g.Mode())
	}
	if d := lkg.Decision; d == nil || d.Degraded != "last-known-good" {
		t.Errorf("last-known-good decision = %+v", d)
	}
	g.lastGoodFan = nil
	reactive := plan()
	if g.Mode() != ModeReactive || reactive.Fan != nil {
		t.Errorf("reactive round (mode %v) carries fan %v, want none", g.Mode(), reactive.Fan)
	}
	if d := reactive.Decision; d == nil || d.Degraded != "reactive" || d.Strategy != g.Name() {
		t.Errorf("reactive decision = %+v", d)
	}
}
