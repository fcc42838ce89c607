package experiment

import (
	"fmt"
	"sort"
	"time"

	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/optimize"
	"robustscale/internal/parallel"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

// Table2Row is one method's per-decision execution time (Table II): the
// wall time to produce one full-horizon scaling plan.
type Table2Row struct {
	Method   string
	Duration time.Duration
}

// Table2 reproduces the computation-overhead comparison: per-plan wall
// time of the reactive scalers, the QB5000 hybrid, DeepAR and TFT, on the
// Alibaba dataset. DeepAR dominates because of its Monte-Carlo sampling;
// reactive scalers are nearly free.
func Table2(z *Zoo) ([]Table2Row, error) {
	ds := Alibaba
	d, err := z.Dataset(ds)
	if err != nil {
		return nil, err
	}
	cfg := z.Config()

	// Train/fetch the three models concurrently (they are distinct zoo
	// keys). Only the prefetch is parallel: the timed planning loop below
	// must stay sequential so wall-clock measurements are not polluted by
	// sibling work.
	var qb forecast.Forecaster
	var deepar, tft forecast.QuantileForecaster
	fetches := []func() error{
		func() (err error) { qb, err = z.Point(ModelQB5000, ds, 0); return },
		func() (err error) { deepar, err = z.Quantile(ModelDeepAR, ds, 0); return },
		func() (err error) { tft, err = z.Quantile(ModelTFT, ds, 0); return },
	}
	errs := make([]error, len(fetches))
	parallel.ForEach(parallel.Workers(0, len(fetches)), len(fetches), func(i int) {
		errs[i] = fetches[i]()
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}

	// The table reports what a plan costs from a standing start, so the
	// models' incremental interfaces are hidden: every timed repetition
	// then forecasts cold instead of reusing the previous one's state.
	type coldPoint struct{ forecast.Forecaster }
	type coldQuantile struct{ forecast.QuantileForecaster }
	specs := []struct {
		name     string
		strategy scaler.Strategy
		horizon  int
	}{
		{"Reactive-Max", &scaler.ReactiveMax{Window: 6, Theta: cfg.Theta}, 1},
		{"Reactive-Average", &scaler.ReactiveAvg{Window: 6, HalfLife: 6, Theta: cfg.Theta}, 1},
		{"Hybrid(QB5000)", &scaler.Predictive{Forecaster: coldPoint{qb}, Theta: cfg.Theta}, cfg.Horizon},
		{"DeepAR", &scaler.Robust{Forecaster: coldQuantile{deepar}, Tau: 0.9, Theta: cfg.Theta}, cfg.Horizon},
		{"TFT", &scaler.Robust{Forecaster: coldQuantile{tft}, Tau: 0.9, Theta: cfg.Theta}, cfg.Horizon},
	}

	history := d.Series.Slice(0, d.EvalStart)
	rows := make([]Table2Row, 0, len(specs))
	for _, spec := range specs {
		dur, err := timePlan(spec.strategy, history, spec.horizon)
		if err != nil {
			return nil, fmt.Errorf("experiment: table 2 %s: %w", spec.name, err)
		}
		rows = append(rows, Table2Row{Method: spec.name, Duration: dur})
	}
	return rows, nil
}

// timePlan measures the median-of-5 wall time of one planning call.
func timePlan(s scaler.Strategy, history *timeseries.Series, h int) (time.Duration, error) {
	const reps = 5
	durations := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := s.PlanInto(history, h, nil); err != nil {
			return 0, err
		}
		durations = append(durations, time.Since(start))
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return durations[reps/2], nil
}

// Table3Row is one component's contribution to the cost breakdown
// (Table III).
type Table3Row struct {
	Phase    string // "forecast" or "optimize"
	Method   string
	Duration time.Duration
}

// Table3 reproduces the overhead breakdown: quantile-forecast inference
// time for DeepAR vs TFT, and optimization time for the basic robust plan
// vs the uncertainty-aware adaptive plan.
func Table3(z *Zoo) ([]Table3Row, error) {
	ds := Alibaba
	d, err := z.Dataset(ds)
	if err != nil {
		return nil, err
	}
	cfg := z.Config()
	history := d.Series.Slice(0, d.EvalStart)
	levels := forecast.ScalingLevels

	var rows []Table3Row

	// Forecasting inference.
	for _, model := range []ModelName{ModelDeepAR, ModelTFT} {
		qf, err := z.Quantile(model, ds, 0)
		if err != nil {
			return nil, err
		}
		const reps = 5
		durations := make([]time.Duration, 0, reps)
		var fc *forecast.QuantileForecast
		for i := 0; i < reps; i++ {
			start := time.Now()
			fc, err = qf.PredictQuantiles(history, cfg.Horizon, levels)
			if err != nil {
				return nil, err
			}
			durations = append(durations, time.Since(start))
		}
		sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
		rows = append(rows, Table3Row{Phase: "forecast", Method: string(model), Duration: durations[reps/2]})

		// Optimization on the forecast this model produced; measured once
		// per model so the table shows both are negligible and
		// near-identical.
		if model == ModelTFT {
			basicPath := make([]float64, cfg.Horizon)
			for t := range basicPath {
				basicPath[t] = fc.At(t, 0.9)
			}
			start := time.Now()
			if _, err := optimize.Plan(basicPath, cfg.Theta); err != nil {
				return nil, err
			}
			rows = append(rows, Table3Row{Phase: "optimize", Method: "basic", Duration: time.Since(start)})

			start = time.Now()
			us, err := scaler.Uncertainties(fc)
			if err != nil {
				return nil, err
			}
			rho := us[len(us)/2]
			adaptivePath := make([]float64, cfg.Horizon)
			for t := range adaptivePath {
				tau := 0.7
				if us[t] >= rho {
					tau = 0.95
				}
				adaptivePath[t] = fc.At(t, tau)
			}
			if _, err := optimize.Plan(adaptivePath, cfg.Theta); err != nil {
				return nil, err
			}
			rows = append(rows, Table3Row{Phase: "optimize", Method: "adaptive", Duration: time.Since(start)})
		}
	}
	return rows, nil
}

// Figure5Row is one checkpoint size's scale-out warm-up time (Figure 5).
type Figure5Row struct {
	CheckpointMB float64
	Warmup       time.Duration
}

// Figure5CheckpointsMB are the in-memory component sizes swept in the
// warm-up measurement.
var Figure5CheckpointsMB = []float64{256, 512, 1024, 2048, 4096, 8192}

// Figure5 reproduces the scale-out overhead measurement on the simulated
// disaggregated database: warm-up (checkpoint load) time versus checkpoint
// size, staying in the seconds range that justifies ignoring scaling
// overhead at 10-minute intervals.
func Figure5(start time.Time) ([]Figure5Row, error) {
	cfg := cluster.DefaultConfig()
	rows := make([]Figure5Row, 0, len(Figure5CheckpointsMB))
	for _, mb := range Figure5CheckpointsMB {
		cfg.CheckpointMB = mb
		c, err := cluster.New(cfg, start, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure5Row{CheckpointMB: mb, Warmup: c.WarmupDuration()})
	}
	return rows, nil
}
