package chaos

import (
	"fmt"
	"math"

	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/timeseries"
)

// Cursor shares the current replay step between the driving loop and the
// injectors wrapped around its boundaries. It is a plain value: the loop
// moves it in the stage whose injector reads it, and a barrier separates
// one stage from the next.
type Cursor struct{ step int }

// Set moves the cursor to the given replay step.
func (c *Cursor) Set(step int) { c.step = step }

// Step returns the current replay step.
func (c *Cursor) Step() int { return c.step }

// latencySeconds accumulates injected (virtual) latency so a chaos run's
// slow-path pressure is visible without sleeping wall-clock time.
var latencySeconds = obs.Default.Counter(
	"robustscale_chaos_injected_latency_seconds_total",
	"Virtual latency injected into forecaster and control-plane calls.")

// Forecaster wraps a quantile forecaster with scheduled forecaster
// faults: returned errors, NaN/Inf poisoning, quantile crossing,
// unbounded blow-ups, and injected (virtual) latency. Faults consult the
// schedule at the wrapping Cursor's current step, so one wrapper serves a
// whole replay.
type Forecaster struct {
	Inner    forecast.QuantileForecaster
	Schedule *Schedule
	Cursor   *Cursor
}

// Name implements forecast.Forecaster.
func (f *Forecaster) Name() string { return f.Inner.Name() }

// Fit implements forecast.Forecaster.
func (f *Forecaster) Fit(train *timeseries.Series) error { return f.Inner.Fit(train) }

// Predict implements forecast.Forecaster with the error and latency
// fault classes applied.
func (f *Forecaster) Predict(history *timeseries.Series, h int) ([]float64, error) {
	if _, err := f.enter(); err != nil {
		return nil, err
	}
	return f.Inner.Predict(history, h)
}

// PredictQuantiles implements forecast.QuantileForecaster with the full
// forecaster fault taxonomy applied to the returned fan.
func (f *Forecaster) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	return f.predict(false, history, h, levels)
}

// PredictQuantilesWarm implements forecast.IncrementalForecaster with the
// same fault taxonomy as PredictQuantiles, on the inner forecaster's warm
// path when it keeps one. Fault mutations scribble on the inner
// forecaster's scratch fan, which is overwritten on its next predict, so
// injection stays safe on the fast path.
func (f *Forecaster) PredictQuantilesWarm(history *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	return f.predict(true, history, h, levels)
}

var _ forecast.IncrementalForecaster = (*Forecaster)(nil)

// predict is the one fault-applying body of both entries; warm sends the
// inner forecast through its warm path.
func (f *Forecaster) predict(warm bool, history *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	step, err := f.enter()
	if err != nil {
		return nil, err
	}
	var fan *forecast.QuantileForecast
	if warm {
		fan, err = forecast.PredictQuantilesWarm(f.Inner, history, h, levels)
	} else {
		fan, err = f.Inner.PredictQuantiles(history, h, levels)
	}
	if err != nil {
		return nil, err
	}
	if _, ok := f.Schedule.ActiveAt(step, ForecastNaN); ok {
		CountInjected(ForecastNaN)
		poisonFan(fan)
	}
	if _, ok := f.Schedule.ActiveAt(step, ForecastCrossing); ok {
		CountInjected(ForecastCrossing)
		crossFan(fan)
	}
	if e, ok := f.Schedule.ActiveAt(step, ForecastBlowup); ok {
		CountInjected(ForecastBlowup)
		blowupFan(fan, e.Value)
	}
	return fan, nil
}

// enter reads the cursor's step (0 without a cursor) and applies the
// classes that strike before the inner forecast: an injected error, and
// injected latency.
func (f *Forecaster) enter() (int, error) {
	step := 0
	if f.Cursor != nil {
		step = f.Cursor.Step()
	}
	if _, ok := f.Schedule.ActiveAt(step, ForecastError); ok {
		CountInjected(ForecastError)
		return step, fmt.Errorf("chaos: injected forecaster failure at step %d", step)
	}
	if e, ok := f.Schedule.ActiveAt(step, ForecastLatency); ok {
		CountInjected(ForecastLatency)
		latencySeconds.Add(e.Value)
	}
	return step, nil
}

// poisonFan replaces a deterministic scatter of fan entries with NaN and
// Inf — the classic symptom of a diverged training run or a serialization
// bug in a real forecasting service.
func poisonFan(f *forecast.QuantileForecast) {
	for t, row := range f.Values {
		if len(row) == 0 {
			continue
		}
		switch t % 3 {
		case 0:
			row[t%len(row)] = math.NaN()
		case 1:
			row[len(row)-1] = math.Inf(1)
		default:
			for i := range row {
				row[i] = math.NaN()
			}
		}
		if t < len(f.Mean) && t%2 == 0 {
			f.Mean[t] = math.NaN()
		}
	}
}

// crossFan reverses each quantile row so levels strictly cross — the
// independently-trained-heads artifact, amplified.
func crossFan(f *forecast.QuantileForecast) {
	for _, row := range f.Values {
		for i, j := 0, len(row)-1; i < j; i, j = i+1, j-1 {
			row[i], row[j] = row[j], row[i]
		}
	}
}

// blowupFan multiplies the fan by the event factor, modeling an
// unbounded divergence that still looks structurally valid.
func blowupFan(f *forecast.QuantileForecast, factor float64) {
	if factor == 0 {
		factor = 1e6
	}
	for _, row := range f.Values {
		for i := range row {
			row[i] *= factor
		}
	}
	for i := range f.Mean {
		f.Mean[i] *= factor
	}
}

// CorruptTelemetry returns the history the control loop would observe at
// the given step under the schedule's telemetry faults: a frozen sensor
// (stale), a dropout window of NaNs, or double-counted samples. The
// corruption is applied to a copy of the tail; with no active telemetry
// fault the series is returned untouched.
func CorruptTelemetry(s *timeseries.Series, sched *Schedule, step int) *timeseries.Series {
	if sched == nil || s == nil || s.Len() == 0 {
		return s
	}
	out := s
	for _, class := range [...]Class{TelemetryStale, TelemetryDropout, TelemetryDuplicate} {
		e, ok := sched.ActiveAt(step, class)
		if !ok {
			continue
		}
		if out == s {
			out = s.Clone()
		}
		CountInjected(class)
		n := out.Len()
		k := min(max(e.Size, 1), n)
		switch e.Class {
		case TelemetryStale:
			frozen := out.Values[n-k]
			for i := n - k; i < n; i++ {
				out.Values[i] = frozen
			}
		case TelemetryDropout:
			for i := n - k; i < n; i++ {
				out.Values[i] = math.NaN()
			}
		case TelemetryDuplicate:
			for i := n - k; i < n; i++ {
				out.Values[i] *= 2
			}
		}
	}
	return out
}

// ApplyFunc is a scale action as a function; ScaleTo calls it.
type ApplyFunc func(target int) error

func (f ApplyFunc) ScaleTo(target int) error { return f(target) }

// WrapApply wraps a scale-to mutation with the control-plane fault
// classes: rejection (no effect), timeout (no effect, virtual latency),
// and partial fulfilment (the fleet moves halfway to the target, then the
// call reports failure — the retry path's job is to finish it). at
// reports the step being applied and its faults, which the loop reads
// from its round's Window; size reports the current fleet size for
// partial moves.
func WrapApply(apply func(int) error, size func() int, at func() (int, StepFaults)) ApplyFunc {
	return func(target int) error {
		step, f := at()
		if f.Reject {
			CountInjected(ApplyReject)
			return fmt.Errorf("chaos: control plane rejected scale to %d at step %d", target, step)
		}
		if f.Timeout {
			CountInjected(ApplyTimeout)
			latencySeconds.Add(f.TimeoutSeconds)
			return fmt.Errorf("chaos: scale to %d timed out after %gs at step %d", target, f.TimeoutSeconds, step)
		}
		if f.Partial && size != nil {
			current := size()
			if target != current {
				CountInjected(ApplyPartial)
				mid := current + (target-current)/2
				if mid != current {
					if err := apply(mid); err != nil {
						return fmt.Errorf("chaos: partial fulfilment at step %d: %w", step, err)
					}
				}
				return fmt.Errorf("chaos: partial fulfilment: reached %d of requested %d at step %d", mid, target, step)
			}
		}
		return apply(target)
	}
}
