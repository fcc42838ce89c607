package forecast

import (
	"fmt"

	"robustscale/internal/metrics"
	"robustscale/internal/timeseries"
)

// BacktestConfig controls a rolling-origin evaluation of a quantile
// forecaster.
type BacktestConfig struct {
	// Start is the first forecast origin (index into the series);
	// everything before it is visible history.
	Start int
	// Horizon is the forecast length per origin; origins advance by it
	// (non-overlapping windows).
	Horizon int
}

// OriginResult is the outcome at one forecast origin.
type OriginResult struct {
	Origin  int
	MeanWQL float64
	MSE     float64
}

// BacktestResult aggregates a rolling-origin evaluation.
type BacktestResult struct {
	Model   string
	Origins []OriginResult
	// Pooled metrics over all (origin, step) pairs.
	MeanWQL  float64
	MSE      float64
	WQL      map[float64]float64
	Coverage map[float64]float64
}

// Backtest rolls a trained quantile forecaster over the series from
// cfg.Start onward, forecasting Horizon steps at each origin against only
// the history visible there, and reports pooled and per-origin accuracy.
// It is the library-grade version of the evaluation loop behind Table I.
func Backtest(model QuantileForecaster, s *timeseries.Series, cfg BacktestConfig) (*BacktestResult, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("forecast: backtest needs a positive horizon, got %d", cfg.Horizon)
	}
	if cfg.Start <= 0 || cfg.Start+cfg.Horizon > s.Len() {
		return nil, fmt.Errorf("forecast: backtest start %d incompatible with series length %d and horizon %d",
			cfg.Start, s.Len(), cfg.Horizon)
	}
	levels := DefaultLevels

	res := &BacktestResult{
		Model:    model.Name(),
		WQL:      map[float64]float64{},
		Coverage: map[float64]float64{},
	}
	var actuals, means []float64
	perLevel := make(map[float64][]float64, len(levels))

	for origin := cfg.Start; origin+cfg.Horizon <= s.Len(); origin += cfg.Horizon {
		f, err := model.PredictQuantiles(s.Slice(0, origin), cfg.Horizon, levels)
		if err != nil {
			return nil, fmt.Errorf("forecast: backtest at origin %d: %w", origin, err)
		}
		oActual := s.Values[origin : origin+cfg.Horizon]
		oMeanWQL, err := metrics.MeanWQL(levels, oActual, func(tau float64) []float64 {
			path := make([]float64, cfg.Horizon)
			for t := 0; t < cfg.Horizon; t++ {
				path[t] = f.At(t, tau)
			}
			return path
		})
		if err != nil {
			return nil, err
		}
		oMSE, err := metrics.MSE(oActual, f.Mean)
		if err != nil {
			return nil, err
		}
		res.Origins = append(res.Origins, OriginResult{Origin: origin, MeanWQL: oMeanWQL, MSE: oMSE})

		actuals = append(actuals, oActual...)
		means = append(means, f.Mean...)
		for i, tau := range f.Levels {
			for t := 0; t < cfg.Horizon; t++ {
				perLevel[tau] = append(perLevel[tau], f.Values[t][i])
			}
		}
	}
	if len(res.Origins) == 0 {
		return nil, fmt.Errorf("forecast: backtest evaluated no origins")
	}

	for _, tau := range levels {
		w, err := metrics.WQL(tau, actuals, perLevel[tau])
		if err != nil {
			return nil, err
		}
		res.WQL[tau] = w
		res.MeanWQL += w / float64(len(levels))
		c, err := metrics.Coverage(actuals, perLevel[tau])
		if err != nil {
			return nil, err
		}
		res.Coverage[tau] = c
	}
	mse, err := metrics.MSE(actuals, means)
	if err != nil {
		return nil, err
	}
	res.MSE = mse
	return res, nil
}
