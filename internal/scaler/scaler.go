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
	"strconv"
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
	// PlanInto runs one planning round. dst is reused as the allocation
	// buffer when it has capacity (nil is fine for a one-shot caller) and
	// forecasts go through the forecaster's warm path when it keeps one
	// (forecast.IncrementalForecaster / IncrementalPointForecaster),
	// which is bit-identical to its cold path, so a steady-state round
	// has nothing it must allocate.
	PlanInto(history *timeseries.Series, h int, dst []int) (Round, error)
}

// Round is everything one planning round produces. It aliases dst and the
// strategy's scratch, so it is only valid until the strategy's next
// PlanInto; a caller that keeps any of it copies it first
// (obs.DefaultDecisions copies on Record).
type Round struct {
	// Nodes are the integer node allocations for the next h steps.
	Nodes []int
	// Fan is the quantile fan that drove Nodes, letting callers grade
	// forecast calibration online without a second forecast; nil for
	// strategies that scale on history or a point forecast.
	Fan *forecast.QuantileForecast
	// Decision is the structured "why did we scale?" record — chosen
	// quantile levels, per-step uncertainty, bounding quantile values and
	// binding constraints — still missing its round context, which
	// RecordDecisionAdmitted stamps; nil while obs.DefaultDecisions is
	// disabled.
	Decision *obs.Decision
}

// PlanRound runs one planning round and returns only its allocations.
func PlanRound(s Strategy, history *timeseries.Series, h int, dst []int) ([]int, error) {
	r, err := s.PlanInto(history, h, dst)
	return r.Nodes, err
}

// FanProvider and the LastFan methods of Guard and Robust exist only
// because the frozen bench/ driver names them; they read the Round the
// strategy last returned. The next benchmark PR switches bench/ to
// Round.Fan and deletes them.
type FanProvider interface {
	LastFan() *forecast.QuantileForecast
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

// ReactiveMax scales on the maximum workload inside a trailing window, the
// conservative variant of a moving-window reactive scaler.
type ReactiveMax struct {
	// Window is the number of trailing steps inspected.
	Window int
	// Theta is the per-node workload threshold.
	Theta float64

	decision *obs.Decision
}

// Name implements Strategy.
func (r *ReactiveMax) Name() string { return "reactive-max" }

// PlanInto implements Strategy: the window maximum drives a flat
// allocation for the whole horizon (a reactive scaler has no forward
// model).
func (r *ReactiveMax) PlanInto(history *timeseries.Series, h int, dst []int) (Round, error) {
	if history.Len() == 0 {
		return Round{}, ErrNoHistory
	}
	if r.Theta <= 0 {
		return Round{}, fmt.Errorf("scaler: reactive-max threshold %v", r.Theta)
	}
	window := r.Window
	if window <= 0 {
		window = 6
	}
	start := max(0, history.Len()-window)
	peak := math.Inf(-1)
	for i := start; i < history.Len(); i++ {
		if v := history.At(i); v > peak {
			peak = v
		}
	}
	plan := flatPlan(dst, h, peak, r.Theta)
	if !obs.DefaultDecisions.Enabled() {
		return Round{Nodes: plan}, nil
	}
	r.decision = flatDecision(r.decision, r.Name(), r.Theta, peak, plan)
	return Round{Nodes: plan, Decision: r.decision}, nil
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

	decision *obs.Decision
}

// Name implements Strategy.
func (r *ReactiveAvg) Name() string { return "reactive-avg" }

// PlanInto implements Strategy.
func (r *ReactiveAvg) PlanInto(history *timeseries.Series, h int, dst []int) (Round, error) {
	if history.Len() == 0 {
		return Round{}, ErrNoHistory
	}
	if r.Theta <= 0 {
		return Round{}, fmt.Errorf("scaler: reactive-avg threshold %v", r.Theta)
	}
	window := r.Window
	if window <= 0 {
		window = 6
	}
	half := r.HalfLife
	if half <= 0 {
		half = 6
	}
	start := max(0, history.Len()-window)
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
	plan := flatPlan(dst, h, avg, r.Theta)
	if !obs.DefaultDecisions.Enabled() {
		return Round{Nodes: plan}, nil
	}
	r.decision = flatDecision(r.decision, r.Name(), r.Theta, avg, plan)
	return Round{Nodes: plan, Decision: r.decision}, nil
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
	decision       *obs.Decision
	cachedName     string
	plans          *obs.Counter
}

// Name implements Strategy. The name is derived from the forecaster once
// and cached so the hot planning path never re-formats it.
func (p *Predictive) Name() string {
	if p.cachedName == "" {
		p.cachedName = p.Forecaster.Name()
	}
	return p.cachedName
}

// PlanInto implements Strategy.
func (p *Predictive) PlanInto(history *timeseries.Series, h int, dst []int) (Round, error) {
	if p.Theta <= 0 {
		return Round{}, fmt.Errorf("scaler: predictive threshold %v", p.Theta)
	}
	clock := obs.Mono()
	sp := obs.DefaultTracer.Start("forecast")
	var pred []float64
	var err error
	if inc, ok := p.Forecaster.(forecast.IncrementalPointForecaster); ok {
		pred, err = inc.PredictWarm(history, h)
	} else {
		pred, err = p.Forecaster.Predict(history, h)
	}
	sp.End()
	if err != nil {
		return Round{}, err
	}
	lapStage(&clock, stageForecast)
	p.lastPrediction = pred
	round, err := planPath(&clock, pred, p.Theta, dst)
	if err != nil {
		return Round{}, err
	}
	if obs.DefaultDecisions.Enabled() {
		p.decision = pathDecision(p.decision, p.Name(), p.Theta, pred, round.Nodes)
		round.Decision = p.decision
	}
	countPlan(&p.plans, p.Name(), h)
	return round, nil
}

// planPath is the instrumented optimize stage of the strategies that
// allocate along one workload path (Eq. 6 per step), timed from *clock.
func planPath(clock *time.Duration, path []float64, theta float64, dst []int) (Round, error) {
	sp := obs.DefaultTracer.Start("optimize")
	plan, err := optimize.PlanInto(path, theta, dst)
	sp.End()
	if err != nil {
		return Round{}, err
	}
	lapStage(clock, stageOptimize)
	return Round{Nodes: plan}, nil
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

	last       Round
	cachedName string
	plans      *obs.Counter
	tauLevels  []float64
	pathBuf    []float64
}

// LastFan implements FanProvider (the bench/ shim).
func (r *Robust) LastFan() *forecast.QuantileForecast { return r.last.Fan }

// Name implements Strategy. The name is formatted once, in one allocation,
// and cached so the hot planning path never re-formats it.
func (r *Robust) Name() string {
	if r.cachedName == "" {
		var b [64]byte
		name := append(append(b[:0], r.Forecaster.Name()...), '-')
		r.cachedName = string(strconv.AppendFloat(name, r.Tau, 'g', -1, 64))
	}
	return r.cachedName
}

// PlanInto implements Strategy.
func (r *Robust) PlanInto(history *timeseries.Series, h int, dst []int) (Round, error) {
	if r.Theta <= 0 {
		return Round{}, fmt.Errorf("scaler: robust threshold %v", r.Theta)
	}
	if !(r.Tau > 0 && r.Tau < 1) {
		return Round{}, fmt.Errorf("scaler: robust quantile level %v outside (0, 1)", r.Tau)
	}
	if len(r.tauLevels) != 1 || r.tauLevels[0] != r.Tau {
		r.tauLevels = []float64{r.Tau}
	}
	clock := obs.Mono()
	f, err := predictQuantiles(&clock, r.Forecaster, history, h, r.tauLevels)
	if err != nil {
		return Round{}, err
	}
	path := resize(r.pathBuf, h)
	r.pathBuf = path
	for t := 0; t < h; t++ {
		path[t] = f.Values[t][0]
	}
	round, err := planPath(&clock, path, r.Theta, dst)
	if err != nil {
		return Round{}, err
	}
	round.Fan = f
	if obs.DefaultDecisions.Enabled() {
		d := pathDecision(r.last.Decision, r.Name(), r.Theta, path, round.Nodes)
		d.Tau = resize(d.Tau, h)
		for t := range d.Tau {
			d.Tau[t] = r.Tau
		}
		d.Tau1, d.Tau2 = r.Tau, r.Tau
		round.Decision = d
	}
	r.last = round
	countPlan(&r.plans, r.Name(), h)
	return round, nil
}

// predictQuantiles is the instrumented forecast stage, timed from
// *clock: through the warm path when the forecaster keeps warm state,
// which is bit-identical to the cold one by the IncrementalForecaster
// contract.
func predictQuantiles(clock *time.Duration, qf forecast.QuantileForecaster, history *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	sp := obs.DefaultTracer.Start("forecast")
	f, err := forecast.PredictQuantilesWarm(qf, history, h, levels)
	sp.End()
	if err == nil {
		lapStage(clock, stageForecast)
	}
	return f, err
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

// PlanInto implements Strategy (Algorithm 1).
func (a *Adaptive) PlanInto(history *timeseries.Series, h int, dst []int) (Round, error) {
	if a.Theta <= 0 {
		return Round{}, fmt.Errorf("scaler: adaptive threshold %v", a.Theta)
	}
	if !(a.Tau1 > 0 && a.Tau2 < 1 && a.Tau1 <= a.Tau2) {
		return Round{}, fmt.Errorf("scaler: adaptive quantile levels %v/%v invalid", a.Tau1, a.Tau2)
	}
	rungs := [1]StaircaseLevel{{Rho: a.Rho, Tau: a.Tau2}}
	return a.ladder.round(a.Name(), a.Forecaster, a.Levels, a.Tau1, rungs[:], a.Theta, history, h, dst)
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
	out := resize(dst, f.Horizon())
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

// PlanInto implements Strategy.
func (s *Staircase) PlanInto(history *timeseries.Series, h int, dst []int) (Round, error) {
	if s.Theta <= 0 {
		return Round{}, fmt.Errorf("scaler: staircase threshold %v", s.Theta)
	}
	if s.Base <= 0 || s.Base >= 1 {
		return Round{}, fmt.Errorf("scaler: staircase base level %v", s.Base)
	}
	for i := 1; i < len(s.Rungs); i++ {
		if s.Rungs[i].Rho < s.Rungs[i-1].Rho {
			return Round{}, fmt.Errorf("scaler: staircase rungs not sorted by threshold")
		}
	}
	return s.ladder.round(s.Name(), s.Forecaster, s.Levels, s.Base, s.Rungs, s.Theta, history, h, dst)
}

// ladder is the one round body of the uncertainty-aware strategies
// (Algorithm 1 and its staircase extension): forecast the fan, measure
// each step's uncertainty U, start at the base level and let every rung
// whose Rho the step's U reaches set the quantile level, allocate per
// step (Eq. 6) and assemble the decision record. Adaptive is the one-rung
// ladder {Rho, Tau2} over Tau1. Each strategy embeds a ladder for the
// decision record, its plans_total child and the scratch the round reuses.
type ladder struct {
	decision *obs.Decision
	plans    *obs.Counter
	us       []float64
	taus     []float64
	qs       []float64
	binding  []string
}

func (l *ladder) round(name string, qf forecast.QuantileForecaster, levels []float64, base float64, rungs []StaircaseLevel,
	theta float64, history *timeseries.Series, h int, dst []int) (Round, error) {
	if len(levels) == 0 {
		levels = forecast.ScalingLevels
	}
	clock := obs.Mono()
	f, err := predictQuantiles(&clock, qf, history, h, levels)
	if err != nil {
		return Round{}, err
	}
	sp := obs.DefaultTracer.Start("optimize")
	l.us, err = uncertaintiesInto(f, l.us)
	if err != nil {
		sp.End()
		return Round{}, err
	}
	us := l.us
	out := resize(dst, h)
	l.taus = resize(l.taus, h)
	l.qs = resize(l.qs, h)
	l.binding = resize(l.binding, h)
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
	lapStage(&clock, stageOptimize)
	round := Round{Nodes: out, Fan: f}
	if obs.DefaultDecisions.Enabled() {
		if l.decision == nil {
			l.decision = &obs.Decision{}
		}
		d := l.decision
		*d = obs.Decision{
			Strategy: name, Horizon: h, Theta: theta, Nodes: out,
			U: us, Tau: l.taus, Tau1: base, Tau2: base,
			Quantile: l.qs, Binding: l.binding,
		}
		if len(rungs) > 0 {
			d.Rho = rungs[0].Rho
			d.Tau2 = rungs[len(rungs)-1].Tau
		}
		round.Decision = d
	}
	countPlan(&l.plans, name, h)
	return round, nil
}
