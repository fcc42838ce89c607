package forecast

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"robustscale/internal/timeseries"
)

// Naive forecasts every future step as the last observed value, with
// quantiles from the empirical distribution of historical h-step changes.
// It is the reference point every learned forecaster must beat.
type Naive struct {
	// MaxResiduals bounds the retained residual history per horizon step.
	MaxResiduals int

	fitted bool
	// residuals[k] holds historical (w_{t+k+1} - w_t) differences.
	residuals [][]float64
	horizon   int

	warm offsetWarm
}

// offsetWarm is the warm-path cache shared by the offset-based baselines
// (Naive, SeasonalNaive): their per-(step, level) quantile offsets are
// constants after Fit for a fixed set of levels, so the steady-state round
// reduces to adds into a reused fan.
type offsetWarm struct {
	levels levelsCache
	// offs[k*len(offLevels)+i] is the quantile offset for step k at cached
	// level i, valid while the normalized levels slice is the one it was
	// built from; every row shares the one array.
	offs      []float64
	offLevels []float64
	fan       *QuantileForecast
}

// rows returns the cached offsets for (h, lv), row k at k*len(lv),
// rebuilding them from quantile(k, tau) when the levels changed or the
// horizon grew.
func (w *offsetWarm) rows(h int, lv []float64, quantile func(k int, tau float64) float64) []float64 {
	fresh := len(w.offLevels) != len(lv) || (len(lv) > 0 && &w.offLevels[0] != &lv[0]) || len(w.offs) < h*len(lv)
	if !fresh {
		return w.offs
	}
	w.offs = resize(w.offs, h*len(lv))
	for k := 0; k < h; k++ {
		for i, tau := range lv {
			w.offs[k*len(lv)+i] = quantile(k, tau)
		}
	}
	w.offLevels = lv
	return w.offs
}

// NewNaive returns a last-value forecaster that supports quantile bands up
// to the given horizon.
func NewNaive(horizon int) *Naive {
	return &Naive{MaxResiduals: 2048, horizon: horizon}
}

// Name implements Forecaster.
func (n *Naive) Name() string { return "naive" }

// Fit records the empirical distribution of h-step changes for each h up
// to the configured horizon.
func (n *Naive) Fit(train *timeseries.Series) error {
	if n.horizon <= 0 {
		return fmt.Errorf("forecast: naive needs a positive horizon, got %d", n.horizon)
	}
	if train.Len() <= n.horizon {
		return ErrShortHistory
	}
	n.warm = offsetWarm{}
	n.residuals = make([][]float64, n.horizon)
	for k := range n.residuals {
		n.residuals[k] = residualPool(train, k+1, train.Len()-n.horizon, n.MaxResiduals)
	}
	n.fitted = true
	return nil
}

// Predict implements Forecaster: a flat continuation of the last value.
func (n *Naive) Predict(history *timeseries.Series, h int) ([]float64, error) {
	return medianMean(n.PredictQuantiles(history, h, []float64{0.5}))
}

// PredictQuantiles implements QuantileForecaster: last value plus the
// empirical quantile of historical k-step changes.
func (n *Naive) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	return n.predict(&offsetWarm{}, history, h, levels)
}

// PredictQuantilesWarm implements IncrementalForecaster: PredictQuantiles
// with the per-level offsets cached across rounds and the fan reused
// (scratch owned by the forecaster, valid until the next predict).
func (n *Naive) PredictQuantilesWarm(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	return n.predict(&n.warm, history, h, levels)
}

// predict is the one body of both entries, on the cache w.
func (n *Naive) predict(w *offsetWarm, history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	if !n.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 || h > n.horizon {
		return nil, fmt.Errorf("forecast: naive fitted for horizon %d, requested %d", n.horizon, h)
	}
	lv, err := w.levels.get(levels)
	if err != nil {
		return nil, err
	}
	if history.Len() == 0 {
		return nil, ErrShortHistory
	}
	offs := w.rows(h, lv, func(k int, tau float64) float64 {
		return timeseries.InterpolatedQuantile(n.residuals[k], tau)
	})
	last := history.At(history.Len() - 1)
	out := reuseFan(w.fan, h, lv)
	w.fan = out
	for k := 0; k < h; k++ {
		out.Mean[k] = last
		row := out.Values[k]
		for i := range lv {
			row[i] = last + offs[k*len(lv)+i]
		}
	}
	out.Enforce()
	return out, nil
}

// SeasonalNaive forecasts each step as the value one season earlier, with
// quantiles from the empirical distribution of seasonal differences — the
// strongest trivial baseline on strongly cyclic workloads.
type SeasonalNaive struct {
	// Period is the season length in steps (144 for daily at 10-minute
	// sampling).
	Period int
	// MaxResiduals bounds the retained residual history.
	MaxResiduals int

	fitted    bool
	residuals []float64 // sorted seasonal differences w_t - w_{t-Period}

	warm offsetWarm
}

// NewSeasonalNaive returns a seasonal-naive forecaster.
func NewSeasonalNaive(period int) *SeasonalNaive {
	return &SeasonalNaive{Period: period, MaxResiduals: 4096}
}

// Name implements Forecaster: "seasonal-naive-<Period>", one allocation.
func (s *SeasonalNaive) Name() string {
	var b [32]byte
	return string(strconv.AppendInt(append(b[:0], "seasonal-naive-"...), int64(s.Period), 10))
}

// Fit records the empirical seasonal differences.
func (s *SeasonalNaive) Fit(train *timeseries.Series) error {
	if s.Period <= 0 {
		return fmt.Errorf("forecast: seasonal-naive needs a positive period, got %d", s.Period)
	}
	if train.Len() <= s.Period {
		return ErrShortHistory
	}
	s.warm = offsetWarm{}
	s.residuals = residualPool(train, s.Period, train.Len()-s.Period, s.MaxResiduals)
	s.fitted = true
	return nil
}

// Predict implements Forecaster: the value one season earlier.
func (s *SeasonalNaive) Predict(history *timeseries.Series, h int) ([]float64, error) {
	return medianMean(s.PredictQuantiles(history, h, []float64{0.5}))
}

// PredictQuantiles implements QuantileForecaster.
func (s *SeasonalNaive) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	return s.predict(&offsetWarm{}, history, h, levels)
}

// PredictQuantilesWarm implements IncrementalForecaster: PredictQuantiles
// with the per-level seasonal offsets cached and the fan reused (scratch
// owned by the forecaster, valid until the next predict).
func (s *SeasonalNaive) PredictQuantilesWarm(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	return s.predict(&s.warm, history, h, levels)
}

// predict is the one body of both entries, on the cache w.
func (s *SeasonalNaive) predict(w *offsetWarm, history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: non-positive horizon %d", h)
	}
	lv, err := w.levels.get(levels)
	if err != nil {
		return nil, err
	}
	if history.Len() < s.Period {
		return nil, ErrShortHistory
	}
	// The seasonal offsets do not depend on the step, so one cached row
	// serves every k.
	offs := w.rows(1, lv, func(_ int, tau float64) float64 {
		return timeseries.InterpolatedQuantile(s.residuals, tau)
	})
	out := reuseFan(w.fan, h, lv)
	w.fan = out
	for k := 0; k < h; k++ {
		// Index of the same phase one (or more) seasons earlier.
		idx := history.Len() + k
		for idx >= history.Len() {
			idx -= s.Period
		}
		base := history.At(idx)
		// Widen the band with the number of seasons extrapolated.
		scale := math.Sqrt(float64((history.Len() + k - idx) / s.Period))
		out.Mean[k] = base
		row := out.Values[k]
		for i := range lv {
			row[i] = base + scale*offs[i]
		}
	}
	out.Enforce()
	return out, nil
}

// residualPool returns the sorted lag-step changes train[t+lag] - train[t]
// for t below avail, stride-thinned to at most limit of them (limit <= 0
// keeps every one) and sized exactly: the residual pool of both naive
// baselines.
func residualPool(train *timeseries.Series, lag, avail, limit int) []float64 {
	stride := 1
	if limit > 0 && avail > limit {
		stride = (avail + limit - 1) / limit
	}
	pool := make([]float64, 0, (avail+stride-1)/stride)
	for t := 0; t < avail; t += stride {
		pool = append(pool, train.At(t+lag)-train.At(t))
	}
	sort.Float64s(pool)
	return pool
}

var (
	_ QuantileForecaster    = (*Naive)(nil)
	_ QuantileForecaster    = (*SeasonalNaive)(nil)
	_ IncrementalForecaster = (*Naive)(nil)
	_ IncrementalForecaster = (*SeasonalNaive)(nil)
)
