package experiment

import (
	"fmt"
	"math"

	"robustscale/internal/forecast"
	"robustscale/internal/metrics"
	"robustscale/internal/parallel"
)

// Table1Row is one model's accuracy on one dataset (a row of Table I).
type Table1Row struct {
	Dataset  DatasetName
	Model    ModelName
	MeanWQL  float64
	WQL      map[float64]float64 // at 0.7, 0.8, 0.9
	Coverage map[float64]float64 // at 0.7, 0.8, 0.9
	MSE      float64
}

// table1Taus are the emphasized quantile levels of Table I.
var table1Taus = []float64{0.7, 0.8, 0.9}

// Table1 reproduces Table I: forecaster comparison on both datasets with
// context and prediction length Horizon, metrics averaged over cfg.Runs
// training runs. The (dataset, model) cells are independent — distinct
// zoo keys — so they train and evaluate concurrently; rows land in their
// fixed slots, preserving the table's order regardless of scheduling.
func Table1(z *Zoo) ([]Table1Row, error) {
	type cell struct {
		ds    DatasetName
		model ModelName
	}
	var cells []cell
	for _, ds := range []DatasetName{Alibaba, Google} {
		for _, model := range QuantileModels {
			cells = append(cells, cell{ds, model})
		}
	}
	rows := make([]Table1Row, len(cells))
	errs := make([]error, len(cells))
	parallel.ForEach(parallel.Workers(0, len(cells)), len(cells), func(i int) {
		row, err := table1Cell(z, cells[i].ds, cells[i].model)
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = *row
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

func table1Cell(z *Zoo, ds DatasetName, model ModelName) (*Table1Row, error) {
	cfg := z.Config()
	runs := cfg.Runs
	if runs < 1 {
		runs = 1
	}
	agg := &Table1Row{
		Dataset:  ds,
		Model:    model,
		WQL:      map[float64]float64{},
		Coverage: map[float64]float64{},
	}
	for run := 0; run < runs; run++ {
		m, err := z.Quantile(model, ds, run)
		if err != nil {
			return nil, err
		}
		d, err := z.Dataset(ds)
		if err != nil {
			return nil, err
		}
		e, err := forecast.Backtest(m, d.Series, forecast.BacktestConfig{Start: d.EvalStart, Horizon: cfg.Horizon})
		if err != nil {
			return nil, fmt.Errorf("experiment: evaluating %s on %s: %w", model, ds, err)
		}
		agg.MeanWQL += e.MeanWQL / float64(runs)
		agg.MSE += e.MSE / float64(runs)
		for _, tau := range table1Taus {
			agg.WQL[tau] += e.WQL[tau] / float64(runs)
			agg.Coverage[tau] += e.Coverage[tau] / float64(runs)
		}
	}
	return agg, nil
}

// Figure8Row is one (model, horizon) cell of the horizon sweep (Figure 8).
type Figure8Row struct {
	Dataset DatasetName
	Model   ModelName
	Horizon int
	MeanWQL float64
}

// Figure8Horizons are the prediction lengths evaluated in Figure 8:
// 10 minutes, 1, 2, 6 and 12 hours.
var Figure8Horizons = []int{1, 6, 12, 36, 72}

// Figure8 reproduces the horizon sweep on the Alibaba dataset: every model
// keeps its (long-horizon) hyperparameters, exactly as the paper fixes
// hyperparameters across horizons.
func Figure8(z *Zoo, ds DatasetName) ([]Figure8Row, error) {
	d, err := z.Dataset(ds)
	if err != nil {
		return nil, err
	}
	var rows []Figure8Row
	for _, model := range QuantileModels {
		m, err := z.Quantile(model, ds, 0)
		if err != nil {
			return nil, err
		}
		for _, h := range Figure8Horizons {
			if h > z.Config().Horizon {
				continue
			}
			e, err := forecast.Backtest(m, d.Series, forecast.BacktestConfig{Start: d.EvalStart, Horizon: h})
			if err != nil {
				return nil, fmt.Errorf("experiment: figure 8 %s h=%d: %w", model, h, err)
			}
			rows = append(rows, Figure8Row{Dataset: ds, Model: model, Horizon: h, MeanWQL: e.MeanWQL})
		}
	}
	return rows, nil
}

// Figure6Point is one step of the uncertainty-accuracy correlation plot:
// the uncertainty metric U of the forecast fan at a step alongside that
// step's realized absolute error and quantile loss.
type Figure6Point struct {
	Step        int
	Uncertainty float64
	AbsErr      float64
	MeanQL      float64
}

// figure6Smoothing is the centred moving-average half-width applied before
// correlating: realized per-step errors are single noisy draws, and the
// paper's Figure 6 visually compares smooth curves, not raw points.
const figure6Smoothing = 3

// Figure6 reproduces the uncertainty/accuracy correlation: per-step U
// versus the step's forecast errors over one sampled horizon, plus the
// Pearson correlations of the (lightly smoothed) series over the whole
// evaluation span. The relationship is clearest for the sampling-based
// DeepAR on the bursty Google trace, whose path spread widens in volatile
// regions.
func Figure6(z *Zoo, ds DatasetName, model ModelName) ([]Figure6Point, float64, float64, error) {
	d, err := z.Dataset(ds)
	if err != nil {
		return nil, 0, 0, err
	}
	m, err := z.Quantile(model, ds, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	cfg := z.Config()
	levels := forecast.DefaultLevels

	var sample []Figure6Point
	var us, aes, qls []float64
	n := d.Series.Len()
	for origin := d.EvalStart; origin+cfg.Horizon <= n; origin += cfg.Horizon {
		f, err := m.PredictQuantiles(d.Series.Slice(0, origin), cfg.Horizon, levels)
		if err != nil {
			return nil, 0, 0, err
		}
		for t := 0; t < cfg.Horizon; t++ {
			y := d.Series.At(origin + t)
			median := f.At(t, 0.5)
			u, err := metrics.Uncertainty(f.Levels, f.Step(t), median)
			if err != nil {
				return nil, 0, 0, err
			}
			ae := math.Abs(y - f.Mean[t])
			ql := 0.0
			for i, tau := range f.Levels {
				lq, err := metrics.QuantileLoss(tau, []float64{y}, []float64{f.Values[t][i]})
				if err != nil {
					return nil, 0, 0, err
				}
				ql += lq / float64(len(f.Levels))
			}
			if origin == d.EvalStart {
				sample = append(sample, Figure6Point{Step: t, Uncertainty: u, AbsErr: ae, MeanQL: ql})
			}
			us = append(us, u)
			aes = append(aes, ae)
			qls = append(qls, ql)
		}
	}
	us = movingAverage(us, figure6Smoothing)
	aes = movingAverage(aes, figure6Smoothing)
	qls = movingAverage(qls, figure6Smoothing)
	return sample, pearson(us, aes), pearson(us, qls), nil
}

// movingAverage smooths with a centred window of half-width w.
func movingAverage(xs []float64, w int) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		lo, hi := i-w, i+w
		if lo < 0 {
			lo = 0
		}
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / (math.Sqrt(vx) * math.Sqrt(vy))
}

// Figure7Band is one model's prediction intervals over a sampled horizon
// (Figure 7): the mean path plus the 30%, 50% and 80% central intervals.
type Figure7Band struct {
	Model  ModelName
	Actual []float64
	Mean   []float64
	// Lo and Hi map an interval mass (0.3, 0.5, 0.8) to its bounds.
	Lo, Hi map[float64][]float64
}

// Figure7Intervals are the central interval masses plotted in Figure 7.
var Figure7Intervals = []float64{0.3, 0.5, 0.8}

// Figure7 reproduces the prediction-interval visualization for MLP,
// DeepAR and TFT over the first evaluation horizon.
func Figure7(z *Zoo, ds DatasetName) ([]Figure7Band, error) {
	d, err := z.Dataset(ds)
	if err != nil {
		return nil, err
	}
	cfg := z.Config()
	origin := d.EvalStart
	if origin+cfg.Horizon > d.Series.Len() {
		return nil, fmt.Errorf("experiment: series too short for figure 7")
	}
	actual := d.Series.Values[origin : origin+cfg.Horizon]

	var bands []Figure7Band
	for _, model := range []ModelName{ModelMLP, ModelDeepAR, ModelTFT} {
		m, err := z.Quantile(model, ds, 0)
		if err != nil {
			return nil, err
		}
		f, err := m.PredictQuantiles(d.Series.Slice(0, origin), cfg.Horizon, forecast.DefaultLevels)
		if err != nil {
			return nil, err
		}
		band := Figure7Band{
			Model:  model,
			Actual: actual,
			Mean:   f.Mean,
			Lo:     map[float64][]float64{},
			Hi:     map[float64][]float64{},
		}
		for _, mass := range Figure7Intervals {
			loTau := (1 - mass) / 2
			hiTau := 1 - loTau
			lo := make([]float64, cfg.Horizon)
			hi := make([]float64, cfg.Horizon)
			for t := 0; t < cfg.Horizon; t++ {
				lo[t] = f.At(t, loTau)
				hi[t] = f.At(t, hiTau)
			}
			band.Lo[mass] = lo
			band.Hi[mass] = hi
		}
		bands = append(bands, band)
	}
	return bands, nil
}
