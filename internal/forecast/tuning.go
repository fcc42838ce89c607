package forecast

import (
	"fmt"

	"robustscale/internal/metrics"
	"robustscale/internal/timeseries"
)

// Candidate is one hyperparameter configuration under evaluation: Build
// constructs the forecaster, Label names the configuration.
type Candidate struct {
	Label string
	Build func() QuantileForecaster
}

// TuneResult reports the score of one candidate.
type TuneResult struct {
	Label string
	Score float64 // validation mean weighted quantile loss; lower is better
}

// Tune fits every candidate on train and scores it on val by rolling
// mean-weighted quantile loss over non-overlapping horizons, returning the
// results sorted as evaluated with the best index. It is the stdlib
// replacement for the Optuna search the paper uses; like the paper, the
// chosen hyperparameters are then reused across all prediction horizons.
func Tune(train, val *timeseries.Series, h int, levels []float64, candidates []Candidate) ([]TuneResult, int, error) {
	if len(candidates) == 0 {
		return nil, -1, fmt.Errorf("forecast: no tuning candidates")
	}
	results := make([]TuneResult, len(candidates))
	best := -1
	for i, c := range candidates {
		model := c.Build()
		if err := model.Fit(train); err != nil {
			return nil, -1, fmt.Errorf("forecast: tuning %s: %w", c.Label, err)
		}
		score, err := rollingQuantileScore(model, train, val, h, levels)
		if err != nil {
			return nil, -1, fmt.Errorf("forecast: scoring %s: %w", c.Label, err)
		}
		results[i] = TuneResult{Label: c.Label, Score: score}
		if best == -1 || score < results[best].Score {
			best = i
		}
	}
	return results, best, nil
}

// rollingQuantileScore evaluates mean pinball loss over the validation
// span, normalized by the target sum (a mean weighted quantile loss).
func rollingQuantileScore(model QuantileForecaster, train, val *timeseries.Series, h int, levels []float64) (float64, error) {
	// Stitch train+val so context windows can cross the boundary.
	joined := make([]float64, 0, train.Len()+val.Len())
	joined = append(joined, train.Values...)
	joined = append(joined, val.Values...)
	full := timeseries.New(train.Name, train.Start, train.Step, joined)

	lossSum, targetSum := 0.0, 0.0
	evaluated := 0
	for origin := train.Len(); origin+h <= full.Len(); origin += h {
		f, err := model.PredictQuantiles(full.Slice(0, origin), h, levels)
		if err != nil {
			return 0, err
		}
		for t := 0; t < h; t++ {
			y := full.At(origin + t)
			for i, tau := range levels {
				lossSum += metrics.Pinball(tau, y, f.Values[t][i])
			}
			targetSum += y
		}
		evaluated++
	}
	if evaluated == 0 {
		return 0, fmt.Errorf("forecast: validation span %d too short for horizon %d", val.Len(), h)
	}
	if targetSum == 0 {
		return lossSum, nil
	}
	return 2 * lossSum / (targetSum * float64(len(levels))), nil
}
