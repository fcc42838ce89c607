package scaler

import (
	"math"
	"testing"
	"time"

	"robustscale/internal/obs"
	"robustscale/internal/timeseries"
)

// benchSeries builds a diurnal workload long enough for a rolling
// evaluation without any model training cost, so the benchmark isolates
// the control loop itself (plan + grade) rather than the forecaster.
func benchSeries(n int) *timeseries.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 500 + 300*math.Sin(2*math.Pi*float64(i)/144) + 40*math.Sin(float64(i))
	}
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	return timeseries.New("bench", start, 10*time.Minute, vals)
}

// BenchmarkEvaluateReactiveMax measures one full rolling evaluation of the
// cheapest strategy — the worst case for per-step observability overhead,
// since no forecaster cost amortizes the instrumentation.
func BenchmarkEvaluateReactiveMax(b *testing.B) {
	s := benchSeries(2016) // two weeks of 10-minute steps
	strat := &ReactiveMax{Window: 6, Theta: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(strat, s, EvalConfig{Theta: 100, Horizon: 1, Start: 144}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateReactiveMaxDecisions is the same rolling evaluation
// with decision capture enabled, measuring what the daemon pays for one
// queryable record per planning round over the disabled default above.
func BenchmarkEvaluateReactiveMaxDecisions(b *testing.B) {
	s := benchSeries(2016)
	strat := &ReactiveMax{Window: 6, Theta: 100}
	obs.DefaultDecisions.SetEnabled(true)
	defer func() {
		obs.DefaultDecisions.SetEnabled(false)
		obs.DefaultDecisions.Reset()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(strat, s, EvalConfig{Theta: 100, Horizon: 1, Start: 144}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustPlan measures one planning round of the robust strategy
// with a stub forecaster, i.e. the quantile-path extraction plus the exact
// per-step optimization.
func BenchmarkRobustPlan(b *testing.B) {
	s := benchSeries(288)
	base := make([]float64, 72)
	spread := make([]float64, 72)
	for i := range base {
		base[i] = 600 + float64(i)
		spread[i] = 0.2
	}
	strat := &Robust{Forecaster: &fakeQF{name: "stub", Base: base, Spread: spread}, Tau: 0.9, Theta: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanRound(strat, s, 72, nil); err != nil {
			b.Fatal(err)
		}
	}
}
