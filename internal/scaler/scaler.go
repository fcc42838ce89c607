// Package scaler implements the auto-scaling strategies compared in the
// paper's Section IV-C: reactive scalers in the style of Google Autopilot
// and the Kubernetes HPA, predictive scalers driven by point forecasts
// (with and without CloudScale-style padding), the robust quantile-driven
// strategy of Equation 6, and the uncertainty-aware adaptive strategy of
// Algorithm 1 together with its staircase extension.
package scaler

import (
	"errors"
	"fmt"
	"math"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/metrics"
	"robustscale/internal/obs"
	"robustscale/internal/optimize"
	"robustscale/internal/timeseries"
)

// Strategy produces compute-node allocations for the next h steps given
// the workload history observed so far.
type Strategy interface {
	// Name identifies the strategy for reporting (e.g. "tft-0.9").
	Name() string
	// Plan returns integer node allocations for the next h steps.
	Plan(history *timeseries.Series, h int) ([]int, error)
}

// Observer is implemented by strategies that learn from realized outcomes
// (the padding enhancement). The evaluation harness feeds actuals back
// after each planning round.
type Observer interface {
	// Observe reports the realized workload for the steps of the most
	// recent plan.
	Observe(actual []float64)
}

// ErrNoHistory is returned when a reactive strategy has no observations to
// work from.
var ErrNoHistory = errors.New("scaler: empty workload history")

// FanProvider is implemented by strategies that retain the quantile fan
// behind their most recent plan, letting callers grade forecast
// calibration online (observed coverage vs nominal level, rolling wQL)
// without paying for a second forecast.
type FanProvider interface {
	// LastFan returns the quantile forecast of the most recent Plan call,
	// or nil before the first plan.
	LastFan() *forecast.QuantileForecast
}

// DecisionProvider is implemented by every strategy in this package: it
// retains the structured "why did we scale?" record behind the most
// recent plan — chosen quantile levels, per-step uncertainty, bounding
// quantile values and binding constraints. The evaluation harness and
// the daemon stamp the record with the planning origin and previous
// allocation (RecordDecision) and record it on obs.DefaultDecisions.
type DecisionProvider interface {
	// LastDecision returns the decision record of the most recent Plan
	// call, or nil before the first plan. The record (and its slices) is
	// reused as scratch by the next Plan call; callers that keep it must
	// record it first (obs.DefaultDecisions copies on Record).
	LastDecision() *obs.Decision
}

// ReactiveMax scales on the maximum workload inside a trailing window, the
// conservative variant of a moving-window reactive scaler.
type ReactiveMax struct {
	// Window is the number of trailing steps inspected.
	Window int
	// Theta is the per-node workload threshold.
	Theta float64

	lastDecision *obs.Decision
}

// Name implements Strategy.
func (r *ReactiveMax) Name() string { return "reactive-max" }

// LastDecision implements DecisionProvider.
func (r *ReactiveMax) LastDecision() *obs.Decision { return r.lastDecision }

// Plan implements Strategy: the window maximum drives a flat allocation
// for the whole horizon (a reactive scaler has no forward model).
func (r *ReactiveMax) Plan(history *timeseries.Series, h int) ([]int, error) {
	return r.PlanInto(history, h, nil)
}

// PlanInto implements InPlacePlanner: the window maximum is computed in
// place, so a steady-state round allocates nothing.
func (r *ReactiveMax) PlanInto(history *timeseries.Series, h int, dst []int) ([]int, error) {
	if history.Len() == 0 {
		return nil, ErrNoHistory
	}
	if r.Theta <= 0 {
		return nil, fmt.Errorf("scaler: reactive-max threshold %v", r.Theta)
	}
	window := r.Window
	if window <= 0 {
		window = 6
	}
	start := history.Len() - window
	if start < 0 {
		start = 0
	}
	peak := math.Inf(-1)
	for i := start; i < history.Len(); i++ {
		if v := history.At(i); v > peak {
			peak = v
		}
	}
	c := optimize.Allocate(peak, r.Theta)
	plan := resizeInts(dst, h)
	for i := range plan {
		plan[i] = c
	}
	if obs.DefaultDecisions.Enabled() {
		r.lastDecision = flatDecision(r.lastDecision, r.Name(), h, r.Theta, peak, plan)
	} else if r.lastDecision != nil {
		r.lastDecision = nil
	}
	return plan, nil
}

// ReactiveAvg scales on an exponentially weighted average of the trailing
// window, the Autopilot-style moving-window recommender. The paper sets
// the half-life to 6 intervals.
type ReactiveAvg struct {
	// Window is the number of trailing steps inspected.
	Window int
	// HalfLife is the decay half-life in steps.
	HalfLife float64
	// Theta is the per-node workload threshold.
	Theta float64

	lastDecision *obs.Decision
}

// Name implements Strategy.
func (r *ReactiveAvg) Name() string { return "reactive-avg" }

// LastDecision implements DecisionProvider.
func (r *ReactiveAvg) LastDecision() *obs.Decision { return r.lastDecision }

// Plan implements Strategy.
func (r *ReactiveAvg) Plan(history *timeseries.Series, h int) ([]int, error) {
	return r.PlanInto(history, h, nil)
}

// PlanInto implements InPlacePlanner: the weighted window average is
// computed in place, so a steady-state round allocates nothing.
func (r *ReactiveAvg) PlanInto(history *timeseries.Series, h int, dst []int) ([]int, error) {
	if history.Len() == 0 {
		return nil, ErrNoHistory
	}
	if r.Theta <= 0 {
		return nil, fmt.Errorf("scaler: reactive-avg threshold %v", r.Theta)
	}
	window := r.Window
	if window <= 0 {
		window = 6
	}
	half := r.HalfLife
	if half <= 0 {
		half = 6
	}
	start := history.Len() - window
	if start < 0 {
		start = 0
	}
	decay := math.Pow(0.5, 1/half)
	weight := 1.0
	sum, wsum := 0.0, 0.0
	// Most recent observation carries the largest weight.
	for i := history.Len() - 1; i >= start; i-- {
		sum += weight * history.At(i)
		wsum += weight
		weight *= decay
	}
	avg := sum / wsum
	c := optimize.Allocate(avg, r.Theta)
	plan := resizeInts(dst, h)
	for i := range plan {
		plan[i] = c
	}
	if obs.DefaultDecisions.Enabled() {
		r.lastDecision = flatDecision(r.lastDecision, r.Name(), h, r.Theta, avg, plan)
	} else if r.lastDecision != nil {
		r.lastDecision = nil
	}
	return plan, nil
}

// Predictive scales on a point forecast (Definition 3 with predicted
// workloads). With a *forecast.Padded base it becomes the padding-enhanced
// baseline; call Observe with realized workloads to feed the padding.
type Predictive struct {
	// Forecaster supplies point forecasts.
	Forecaster forecast.Forecaster
	// Theta is the per-node workload threshold.
	Theta float64

	lastPrediction []float64
	lastDecision   *obs.Decision
	cachedName     string
}

// Name implements Strategy. The name is derived from the forecaster once
// and cached so the hot planning path never re-formats it.
func (p *Predictive) Name() string {
	if p.cachedName == "" {
		p.cachedName = p.Forecaster.Name()
	}
	return p.cachedName
}

// LastDecision implements DecisionProvider.
func (p *Predictive) LastDecision() *obs.Decision { return p.lastDecision }

// Plan implements Strategy.
func (p *Predictive) Plan(history *timeseries.Series, h int) ([]int, error) {
	return p.plan(history, h, nil, false)
}

// PlanInto implements InPlacePlanner, routing the forecast through the
// forecaster's warm path when it keeps one.
func (p *Predictive) PlanInto(history *timeseries.Series, h int, dst []int) ([]int, error) {
	return p.plan(history, h, dst, true)
}

func (p *Predictive) plan(history *timeseries.Series, h int, dst []int, warm bool) ([]int, error) {
	if p.Theta <= 0 {
		return nil, fmt.Errorf("scaler: predictive threshold %v", p.Theta)
	}
	t0 := time.Now()
	sp := obs.DefaultTracer.Start("forecast")
	var pred []float64
	var err error
	if inc, ok := p.Forecaster.(forecast.IncrementalPointForecaster); warm && ok {
		pred, err = inc.PredictWarm(history, h)
	} else {
		pred, err = p.Forecaster.Predict(history, h)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	stageForecast.ObserveSince(t0)
	p.lastPrediction = pred
	t0 = time.Now()
	sp = obs.DefaultTracer.Start("optimize")
	plan, err := optimize.PlanInto(pred, p.Theta, dst)
	sp.End()
	if err != nil {
		return nil, err
	}
	stageOptimize.ObserveSince(t0)
	if obs.DefaultDecisions.Enabled() {
		p.lastDecision = pathDecision(p.lastDecision, p.Name(), p.Theta, pred, plan)
	} else if p.lastDecision != nil {
		p.lastDecision = nil
	}
	countPlan(p.Name(), h)
	return plan, nil
}

// Observe implements Observer: when the wrapped forecaster supports
// padding, realized workloads update its under-estimation statistics.
func (p *Predictive) Observe(actual []float64) {
	if padded, ok := p.Forecaster.(*forecast.Padded); ok && p.lastPrediction != nil {
		padded.Observe(actual, p.lastPrediction)
	}
}

// Robust is the paper's core contribution (Equation 6): allocations are
// driven by a single quantile forecast at level Tau, turning the robust
// optimization into a deterministic per-step problem.
type Robust struct {
	// Forecaster supplies quantile forecasts.
	Forecaster forecast.QuantileForecaster
	// Tau is the quantile level guiding allocation (e.g. 0.9).
	Tau float64
	// Theta is the per-node workload threshold.
	Theta float64

	lastFan      *forecast.QuantileForecast
	lastDecision *obs.Decision
	cachedName   string
	tauLevels    []float64
	pathBuf      []float64
}

// LastFan implements FanProvider.
func (r *Robust) LastFan() *forecast.QuantileForecast { return r.lastFan }

// LastDecision implements DecisionProvider.
func (r *Robust) LastDecision() *obs.Decision { return r.lastDecision }

// Name implements Strategy. The name is formatted once and cached so the
// hot planning path never re-formats it.
func (r *Robust) Name() string {
	if r.cachedName == "" {
		r.cachedName = fmt.Sprintf("%s-%g", r.Forecaster.Name(), r.Tau)
	}
	return r.cachedName
}

// Plan implements Strategy.
func (r *Robust) Plan(history *timeseries.Series, h int) ([]int, error) {
	return r.plan(history, h, nil, false)
}

// PlanInto implements InPlacePlanner, routing the forecast through the
// forecaster's warm path when it keeps one.
func (r *Robust) PlanInto(history *timeseries.Series, h int, dst []int) ([]int, error) {
	return r.plan(history, h, dst, true)
}

func (r *Robust) plan(history *timeseries.Series, h int, dst []int, warm bool) ([]int, error) {
	if r.Theta <= 0 {
		return nil, fmt.Errorf("scaler: robust threshold %v", r.Theta)
	}
	if r.Tau <= 0 || r.Tau >= 1 {
		return nil, fmt.Errorf("scaler: robust quantile level %v outside (0, 1)", r.Tau)
	}
	if len(r.tauLevels) != 1 || r.tauLevels[0] != r.Tau {
		r.tauLevels = []float64{r.Tau}
	}
	t0 := time.Now()
	sp := obs.DefaultTracer.Start("forecast")
	f, err := predictQuantiles(r.Forecaster, warm, history, h, r.tauLevels)
	sp.End()
	if err != nil {
		return nil, err
	}
	stageForecast.ObserveSince(t0)
	r.lastFan = f
	path := resizeFloats(r.pathBuf, h)
	r.pathBuf = path
	for t := 0; t < h; t++ {
		path[t] = f.Values[t][0]
	}
	t0 = time.Now()
	sp = obs.DefaultTracer.Start("optimize")
	plan, err := optimize.PlanInto(path, r.Theta, dst)
	sp.End()
	if err != nil {
		return nil, err
	}
	stageOptimize.ObserveSince(t0)
	if obs.DefaultDecisions.Enabled() {
		d := pathDecision(r.lastDecision, r.Name(), r.Theta, path, plan)
		d.Tau = resizeFloats(d.Tau, h)
		for t := range d.Tau {
			d.Tau[t] = r.Tau
		}
		d.Tau1, d.Tau2 = r.Tau, r.Tau
		r.lastDecision = d
	} else if r.lastDecision != nil {
		r.lastDecision = nil
	}
	countPlan(r.Name(), h)
	return plan, nil
}

// predictQuantiles dispatches a quantile forecast through the warm path
// when the round allows it and the forecaster keeps warm state; the two
// paths are bit-identical by the IncrementalForecaster contract.
func predictQuantiles(qf forecast.QuantileForecaster, warm bool, history *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	if warm {
		if inc, ok := qf.(forecast.IncrementalForecaster); ok {
			return inc.PredictQuantilesWarm(history, h, levels)
		}
	}
	return qf.PredictQuantiles(history, h, levels)
}

// Adaptive is the uncertainty-aware adaptive strategy of Algorithm 1: at
// each step the uncertainty U of the quantile fan decides between the
// optimistic level Tau1 and the conservative level Tau2.
type Adaptive struct {
	// Forecaster supplies quantile forecasts.
	Forecaster forecast.QuantileForecaster
	// Tau1 < Tau2 are the optional quantile levels.
	Tau1, Tau2 float64
	// Rho is the uncertainty threshold: U >= Rho selects Tau2.
	Rho float64
	// Theta is the per-node workload threshold.
	Theta float64
	// Levels is the quantile grid used to compute U; it must include 0.5.
	// Defaults to forecast.ScalingLevels.
	Levels []float64

	ladder
	cachedName string
}

// Name implements Strategy. The name is formatted once and cached so the
// hot planning path never re-formats it.
func (a *Adaptive) Name() string {
	if a.cachedName == "" {
		a.cachedName = fmt.Sprintf("%s-adaptive-%g/%g", a.Forecaster.Name(), a.Tau1, a.Tau2)
	}
	return a.cachedName
}

// Plan implements Strategy (Algorithm 1).
func (a *Adaptive) Plan(history *timeseries.Series, h int) ([]int, error) {
	return a.plan(history, h, nil, false)
}

// PlanInto implements InPlacePlanner, routing the forecast through the
// forecaster's warm path when it keeps one.
func (a *Adaptive) PlanInto(history *timeseries.Series, h int, dst []int) ([]int, error) {
	return a.plan(history, h, dst, true)
}

func (a *Adaptive) plan(history *timeseries.Series, h int, dst []int, warm bool) ([]int, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	rungs := [1]StaircaseLevel{{Rho: a.Rho, Tau: a.Tau2}}
	return a.ladder.plan(a.Name(), a.Forecaster, a.Levels, a.Tau1, rungs[:], a.Theta, history, h, dst, warm)
}

func (a *Adaptive) validate() error {
	if a.Theta <= 0 {
		return fmt.Errorf("scaler: adaptive threshold %v", a.Theta)
	}
	if a.Tau1 <= 0 || a.Tau2 >= 1 || a.Tau1 > a.Tau2 {
		return fmt.Errorf("scaler: adaptive quantile levels %v/%v invalid", a.Tau1, a.Tau2)
	}
	return nil
}

// Uncertainties computes the per-step uncertainty metric U (Equation 8)
// of a quantile forecast, measuring each level against the median.
func Uncertainties(f *forecast.QuantileForecast) ([]float64, error) {
	return uncertaintiesInto(f, nil)
}

// CalibrateRho derives the adaptive uncertainty threshold as the median
// uncertainty of an h-step forecast made at the end of training. It must
// be handed the genuine forecaster: a training-time derivation never
// consults a fault schedule.
func CalibrateRho(qf forecast.QuantileForecaster, train *timeseries.Series, h int) (float64, error) {
	fan, err := qf.PredictQuantiles(train, h, forecast.ScalingLevels)
	if err != nil {
		return 0, err
	}
	us, err := Uncertainties(fan)
	if err != nil {
		return 0, err
	}
	return timeseries.New("u", train.Start, train.Step, us).Quantile(0.5), nil
}

// uncertaintiesInto is Uncertainties writing into a recycled scratch
// slice.
func uncertaintiesInto(f *forecast.QuantileForecast, dst []float64) ([]float64, error) {
	out := resizeFloats(dst, f.Horizon())
	for t := range out {
		median := f.At(t, 0.5)
		u, err := metrics.Uncertainty(f.Levels, f.Step(t), median)
		if err != nil {
			return nil, err
		}
		out[t] = u
	}
	return out, nil
}

// StaircaseLevel is one rung of the staircase extension: when the
// uncertainty reaches Rho, scale at quantile level Tau.
type StaircaseLevel struct {
	Rho float64
	Tau float64
}

// Staircase generalizes Adaptive beyond two levels: a sorted ladder of
// uncertainty thresholds maps increasing uncertainty to increasingly
// conservative quantile levels, the "staircase-like range of options" the
// paper describes.
type Staircase struct {
	// Forecaster supplies quantile forecasts.
	Forecaster forecast.QuantileForecaster
	// Base is the quantile level used below the first rung.
	Base float64
	// Rungs must be sorted by ascending Rho.
	Rungs []StaircaseLevel
	// Theta is the per-node workload threshold.
	Theta float64
	// Levels is the quantile grid used to compute U (must include 0.5);
	// defaults to forecast.ScalingLevels.
	Levels []float64

	ladder
	cachedName string
}

// Name implements Strategy. The name is formatted once and cached so the
// hot planning path never re-formats it.
func (s *Staircase) Name() string {
	if s.cachedName == "" {
		s.cachedName = fmt.Sprintf("%s-staircase-%d", s.Forecaster.Name(), len(s.Rungs))
	}
	return s.cachedName
}

// Plan implements Strategy.
func (s *Staircase) Plan(history *timeseries.Series, h int) ([]int, error) {
	return s.plan(history, h, nil, false)
}

// PlanInto implements InPlacePlanner, routing the forecast through the
// forecaster's warm path when it keeps one.
func (s *Staircase) PlanInto(history *timeseries.Series, h int, dst []int) ([]int, error) {
	return s.plan(history, h, dst, true)
}

func (s *Staircase) plan(history *timeseries.Series, h int, dst []int, warm bool) ([]int, error) {
	if s.Theta <= 0 {
		return nil, fmt.Errorf("scaler: staircase threshold %v", s.Theta)
	}
	if s.Base <= 0 || s.Base >= 1 {
		return nil, fmt.Errorf("scaler: staircase base level %v", s.Base)
	}
	for i := 1; i < len(s.Rungs); i++ {
		if s.Rungs[i].Rho < s.Rungs[i-1].Rho {
			return nil, fmt.Errorf("scaler: staircase rungs not sorted by threshold")
		}
	}
	return s.ladder.plan(s.Name(), s.Forecaster, s.Levels, s.Base, s.Rungs, s.Theta, history, h, dst, warm)
}

// ladder is the one plan body of the uncertainty-aware strategies
// (Algorithm 1 and its staircase extension): forecast the fan, measure
// each step's uncertainty U, start at the base level and let every rung
// whose Rho the step's U reaches set the quantile level, allocate per
// step (Eq. 6) and assemble the decision record. Adaptive is the one-rung
// ladder {Rho, Tau2} over Tau1. Each strategy embeds a ladder for the
// last fan, the last decision and the scratch the round reuses.
type ladder struct {
	lastFan      *forecast.QuantileForecast
	lastDecision *obs.Decision
	us           []float64
	taus         []float64
	qs           []float64
	binding      []string
}

// LastFan implements FanProvider.
func (l *ladder) LastFan() *forecast.QuantileForecast { return l.lastFan }

// LastDecision implements DecisionProvider.
func (l *ladder) LastDecision() *obs.Decision { return l.lastDecision }

func (l *ladder) plan(name string, qf forecast.QuantileForecaster, levels []float64, base float64, rungs []StaircaseLevel,
	theta float64, history *timeseries.Series, h int, dst []int, warm bool) ([]int, error) {
	if len(levels) == 0 {
		levels = forecast.ScalingLevels
	}
	t0 := time.Now()
	sp := obs.DefaultTracer.Start("forecast")
	f, err := predictQuantiles(qf, warm, history, h, levels)
	sp.End()
	if err != nil {
		return nil, err
	}
	stageForecast.ObserveSince(t0)
	l.lastFan = f
	t0 = time.Now()
	sp = obs.DefaultTracer.Start("optimize")
	l.us, err = uncertaintiesInto(f, l.us)
	if err != nil {
		sp.End()
		return nil, err
	}
	us := l.us
	out := resizeInts(dst, h)
	l.taus = resizeFloats(l.taus, h)
	l.qs = resizeFloats(l.qs, h)
	l.binding = resizeStrings(l.binding, h)
	for t := 0; t < h; t++ {
		tau := base
		for _, rung := range rungs {
			if us[t] >= rung.Rho {
				tau = rung.Tau
			}
		}
		qv := f.At(t, tau)
		out[t] = optimize.Allocate(qv, theta)
		l.taus[t], l.qs[t], l.binding[t] = tau, qv, bindingFor(qv)
	}
	sp.End()
	stageOptimize.ObserveSince(t0)
	if obs.DefaultDecisions.Enabled() {
		d := l.lastDecision
		if d == nil {
			d = &obs.Decision{}
		}
		*d = obs.Decision{
			Strategy: name, Horizon: h, Theta: theta, Nodes: out,
			U: us, Tau: l.taus, Tau1: base, Tau2: base,
			Quantile: l.qs, Binding: l.binding,
		}
		if len(rungs) > 0 {
			d.Rho = rungs[0].Rho
			d.Tau2 = rungs[len(rungs)-1].Tau
		}
		l.lastDecision = d
	} else if l.lastDecision != nil {
		l.lastDecision = nil
	}
	countPlan(name, h)
	return out, nil
}
