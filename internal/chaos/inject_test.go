package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/timeseries"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// stubQF is a minimal healthy quantile forecaster.
type stubQF struct{}

func (stubQF) Name() string                 { return "stub" }
func (stubQF) Fit(*timeseries.Series) error { return nil }
func (stubQF) Predict(_ *timeseries.Series, h int) ([]float64, error) {
	out := make([]float64, h)
	for i := range out {
		out[i] = 10
	}
	return out, nil
}

func (stubQF) PredictQuantiles(_ *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	f := &forecast.QuantileForecast{Levels: append([]float64(nil), levels...)}
	f.Values = make([][]float64, h)
	f.Mean = make([]float64, h)
	for t := 0; t < h; t++ {
		row := make([]float64, len(levels))
		for i, tau := range levels {
			row[i] = 10 + 5*tau
		}
		f.Values[t] = row
		f.Mean[t] = 10
	}
	return f, nil
}

func history(n int) *timeseries.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 10
	}
	return timeseries.New("w", t0, timeseries.DefaultStep, vals)
}

func TestForecasterInjectsError(t *testing.T) {
	s := &Schedule{}
	s.Add(Event{Step: 3, Class: ForecastError})
	var cur Cursor
	f := &Forecaster{Inner: stubQF{}, Schedule: s, Cursor: &cur}

	cur.Set(0)
	if _, err := f.PredictQuantiles(history(10), 4, []float64{0.5, 0.9}); err != nil {
		t.Fatalf("no fault scheduled at step 0: %v", err)
	}
	cur.Set(3)
	if _, err := f.PredictQuantiles(history(10), 4, []float64{0.5, 0.9}); err == nil ||
		!strings.Contains(err.Error(), "injected forecaster failure") {
		t.Fatalf("want injected failure at step 3, got %v", err)
	}
	if _, err := f.Predict(history(10), 4); err == nil {
		t.Fatal("point path should fail under the same fault")
	}
}

func TestForecasterPoisonsAndCrossesAndBlowsUp(t *testing.T) {
	s := &Schedule{}
	s.Add(Event{Step: 0, Class: ForecastNaN})
	var cur Cursor
	f := &Forecaster{Inner: stubQF{}, Schedule: s, Cursor: &cur}
	fan, err := f.PredictQuantiles(history(10), 6, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if fan.Validate() == nil {
		t.Error("poisoned fan should fail validation")
	}

	s2 := &Schedule{}
	s2.Add(Event{Step: 0, Class: ForecastCrossing})
	f2 := &Forecaster{Inner: stubQF{}, Schedule: s2, Cursor: &Cursor{}}
	fan2, err := f2.PredictQuantiles(history(10), 2, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if row := fan2.Values[0]; row[0] <= row[1] {
		t.Errorf("crossing fault should reverse rows, got %v", row)
	}

	s3 := &Schedule{}
	s3.Add(Event{Step: 0, Class: ForecastBlowup, Value: 1e6})
	f3 := &Forecaster{Inner: stubQF{}, Schedule: s3, Cursor: &Cursor{}}
	fan3, err := f3.PredictQuantiles(history(10), 2, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if fan3.Values[0][0] < 1e6 {
		t.Errorf("blow-up fault should scale the fan, got %v", fan3.Values[0][0])
	}
}

func TestCorruptTelemetry(t *testing.T) {
	base := timeseries.New("w", t0, timeseries.DefaultStep, []float64{1, 2, 3, 4, 5, 6})

	// No active fault: the exact same series comes back, no copy.
	if got := CorruptTelemetry(base, &Schedule{}, 0); got != base {
		t.Error("fault-free telemetry should pass the series through")
	}

	stale := &Schedule{}
	stale.Add(Event{Step: 0, Class: TelemetryStale, Size: 3})
	got := CorruptTelemetry(base, stale, 0)
	if got == base {
		t.Fatal("corruption must copy, not mutate the source")
	}
	if got.Values[3] != 4 || got.Values[4] != 4 || got.Values[5] != 4 {
		t.Errorf("stale tail = %v", got.Values)
	}
	if base.Values[5] != 6 {
		t.Error("source series mutated")
	}

	drop := &Schedule{}
	drop.Add(Event{Step: 0, Class: TelemetryDropout, Size: 2})
	got = CorruptTelemetry(base, drop, 0)
	if !math.IsNaN(got.Values[4]) || !math.IsNaN(got.Values[5]) {
		t.Errorf("dropout tail = %v", got.Values)
	}

	dup := &Schedule{}
	dup.Add(Event{Step: 0, Class: TelemetryDuplicate, Size: 2})
	got = CorruptTelemetry(base, dup, 0)
	if got.Values[4] != 10 || got.Values[5] != 12 {
		t.Errorf("duplicated tail = %v", got.Values)
	}
}

// atCursor answers a wrapped apply from the schedule's fault window over
// steps [0, 4), at the cursor's step.
func atCursor(s *Schedule, cur *Cursor) func() (int, StepFaults) {
	w := &Window{Steps: make([]StepFaults, 4)}
	w.Fill(s, 0)
	return func() (int, StepFaults) { return cur.Step(), w.At(cur.Step()) }
}

func TestWrapApplyFaults(t *testing.T) {
	var cur Cursor
	applied := 1
	apply := func(n int) error { applied = n; return nil }
	size := func() int { return applied }

	rej := &Schedule{}
	rej.Add(Event{Step: 2, Class: ApplyReject})
	wrapped := WrapApply(apply, size, atCursor(rej, &cur))
	cur.Set(0)
	if err := wrapped(3); err != nil || applied != 3 {
		t.Fatalf("fault-free apply: err=%v applied=%d", err, applied)
	}
	cur.Set(2)
	if err := wrapped(5); err == nil {
		t.Fatal("rejection should error")
	}
	if applied != 3 {
		t.Errorf("rejected apply must not mutate, applied=%d", applied)
	}

	part := &Schedule{}
	part.Add(Event{Step: 0, Class: ApplyPartial})
	applied = 1
	wrapped = WrapApply(apply, size, atCursor(part, &Cursor{}))
	err := wrapped(5)
	if err == nil || !strings.Contains(err.Error(), "partial fulfilment") {
		t.Fatalf("want partial fulfilment error, got %v", err)
	}
	if applied != 3 { // halfway from 1 to 5
		t.Errorf("partial apply reached %d, want 3", applied)
	}
	// Retrying converges toward the target while the window is active.
	if err := wrapped(5); err == nil {
		t.Fatal("second partial attempt still errors")
	}
	if applied != 4 {
		t.Errorf("second partial apply reached %d, want 4", applied)
	}

	to := &Schedule{}
	to.Add(Event{Step: 0, Class: ApplyTimeout, Value: 30})
	applied = 1
	wrapped = WrapApply(apply, size, atCursor(to, &Cursor{}))
	if err := wrapped(4); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout error, got %v", err)
	}
	if applied != 1 {
		t.Errorf("timed-out apply must not mutate, applied=%d", applied)
	}
}
