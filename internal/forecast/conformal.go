package forecast

import (
	"fmt"
	"sort"

	"robustscale/internal/timeseries"
)

// Conformal wraps any quantile forecaster with split-conformal calibration
// (conformalized quantile regression): part of the training data is held
// out, the base model's quantile errors on it are measured, and every
// future forecast is shifted by the empirical error quantile. The result
// has distribution-free finite-sample coverage guarantees — it repairs
// exactly the under-coverage that makes an otherwise-accurate forecaster
// (DeepAR on the Alibaba trace, per Table I) unsafe to scale on.
type Conformal struct {
	// Base is the wrapped quantile forecaster.
	Base QuantileForecaster
	// Levels is the quantile grid calibrated at Fit time; requests in
	// between are interpolated. Defaults to ScalingLevels.
	Levels []float64
	// CalibFrac is the tail fraction of the training series held out for
	// calibration (default 0.2).
	CalibFrac float64
	// Horizon is the forecast length used during calibration (default
	// 72). Offsets are pooled across horizon steps.
	Horizon int

	offsets []float64 // per Levels entry
	fitted  bool

	warm conformalWarm
}

// conformalWarm caches the interpolated per-request-level offsets (Fit-time
// constants for a fixed levels slice) and the reused output fan.
type conformalWarm struct {
	levels levelsCache
	offs   []float64
	offLv  []float64
	fan    *QuantileForecast
}

// NewConformal wraps base with default settings.
func NewConformal(base QuantileForecaster) *Conformal {
	return &Conformal{Base: base, CalibFrac: 0.2, Horizon: 72}
}

// Name implements Forecaster.
func (c *Conformal) Name() string { return c.Base.Name() + "-conformal" }

// Fit trains the base model on the head of the series and calibrates
// per-level offsets on the held-out tail.
func (c *Conformal) Fit(train *timeseries.Series) error {
	c.warm = conformalWarm{}
	if c.CalibFrac <= 0 || c.CalibFrac >= 1 {
		return fmt.Errorf("forecast: conformal calibration fraction %v outside (0, 1)", c.CalibFrac)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("forecast: conformal horizon %d", c.Horizon)
	}
	levels := c.Levels
	if len(levels) == 0 {
		levels = append([]float64{}, ScalingLevels...)
	}
	levels, err := normalizeLevels(levels)
	if err != nil {
		return err
	}
	c.Levels = levels

	cut := int(float64(train.Len()) * (1 - c.CalibFrac))
	if cut <= 0 || train.Len()-cut < c.Horizon {
		return fmt.Errorf("forecast: training series of %d too short for conformal calibration (horizon %d)", train.Len(), c.Horizon)
	}
	if err := c.Base.Fit(train.Slice(0, cut)); err != nil {
		return err
	}

	// Collect per-level conformity scores y - yhat_tau over the
	// calibration span.
	scores := make([][]float64, len(levels))
	for origin := cut; origin+c.Horizon <= train.Len(); origin += c.Horizon {
		f, err := c.Base.PredictQuantiles(train.Slice(0, origin), c.Horizon, levels)
		if err != nil {
			return fmt.Errorf("forecast: conformal calibration at %d: %w", origin, err)
		}
		for t := 0; t < c.Horizon; t++ {
			y := train.At(origin + t)
			for i := range levels {
				scores[i] = append(scores[i], y-f.Values[t][i])
			}
		}
	}
	if len(scores[0]) == 0 {
		return fmt.Errorf("forecast: conformal calibration produced no scores")
	}

	// The tau-quantile forecast should sit above y a tau-fraction of the
	// time, i.e. the tau-quantile of the scores y - yhat should be zero.
	// Whatever it actually is becomes the additive correction, with the
	// standard (1+1/n) finite-sample inflation.
	c.offsets = make([]float64, len(levels))
	n := float64(len(scores[0]))
	for i, tau := range levels {
		sort.Float64s(scores[i])
		q := tau * (1 + 1/n)
		if q > 1 {
			q = 1
		}
		c.offsets[i] = timeseries.InterpolatedQuantile(scores[i], q)
	}
	c.fitted = true
	return nil
}

// Predict implements Forecaster: the base mean is left unadjusted.
func (c *Conformal) Predict(history *timeseries.Series, h int) ([]float64, error) {
	if !c.fitted {
		return nil, ErrNotFitted
	}
	return c.Base.Predict(history, h)
}

// PredictQuantiles implements QuantileForecaster: base quantiles plus the
// calibrated per-level offsets.
func (c *Conformal) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	return c.predict(&conformalWarm{}, false, history, h, levels)
}

// PredictQuantilesWarm implements IncrementalForecaster: PredictQuantiles
// through the base's warm path when it keeps one, reusing the offset row
// and output fan across rounds.
func (c *Conformal) PredictQuantilesWarm(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	return c.predict(&c.warm, true, history, h, levels)
}

// predict is the one body of both entries, on the cache w; warm sends the
// base forecast through the base's warm path.
func (c *Conformal) predict(w *conformalWarm, warm bool, history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	if !c.fitted {
		return nil, ErrNotFitted
	}
	lv, err := w.levels.get(levels)
	if err != nil {
		return nil, err
	}
	var f *QuantileForecast
	if warm {
		f, err = PredictQuantilesWarm(c.Base, history, h, lv)
	} else {
		f, err = c.Base.PredictQuantiles(history, h, lv)
	}
	if err != nil {
		return nil, err
	}
	if len(w.offLv) != len(lv) || (len(lv) > 0 && &w.offLv[0] != &lv[0]) {
		w.offs = resize(w.offs, len(lv))
		for i, tau := range lv {
			w.offs[i] = quantileAt(c.Levels, c.offsets, tau)
		}
		w.offLv = lv
	}
	out := reuseFan(w.fan, h, lv)
	w.fan = out
	copy(out.Mean, f.Mean)
	for t := 0; t < h; t++ {
		row := out.Values[t]
		base := f.Values[t]
		for i := range lv {
			row[i] = base[i] + w.offs[i]
		}
	}
	out.Enforce()
	return out, nil
}

var (
	_ QuantileForecaster    = (*Conformal)(nil)
	_ IncrementalForecaster = (*Conformal)(nil)
)
