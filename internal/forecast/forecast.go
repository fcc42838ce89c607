// Package forecast implements the probabilistic workload forecasters from
// the paper's evaluation: ARIMA, a Gaussian-head MLP, a DeepAR-style
// autoregressive LSTM with a Student-t head (learning a parametric
// distribution), a simplified Temporal Fusion Transformer (learning a
// pre-specified grid of quantiles), the QueryBot 5000 hybrid point
// forecaster, and the CloudScale-style padding enhancement.
//
// The two neural quantile forecasters embody the two methodologies of
// Section III-B: DeepAR emits distribution parameters and derives quantiles
// by sampling; TFT directly outputs a pre-specified quantile grid trained
// with the pinball loss.
package forecast

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"robustscale/internal/timeseries"
)

// Forecaster is a point workload forecaster (Definition 1).
type Forecaster interface {
	// Name identifies the model (e.g. "tft").
	Name() string
	// Fit trains the model on a historical workload series.
	Fit(train *timeseries.Series) error
	// Predict forecasts the h steps following the end of history. The
	// model reads its context window from the tail of history.
	Predict(history *timeseries.Series, h int) ([]float64, error)
}

// QuantileForecaster additionally produces quantile forecasts
// (Definition 2).
type QuantileForecaster interface {
	Forecaster
	// PredictQuantiles forecasts the requested quantile levels for the h
	// steps following the end of history.
	PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error)
}

// ErrNotFitted is returned when Predict is called before Fit.
var ErrNotFitted = errors.New("forecast: model not fitted")

// ErrShortHistory is returned when the history does not cover the model's
// context window.
var ErrShortHistory = errors.New("forecast: history shorter than context window")

// QuantileForecast holds multi-step quantile forecasts: Values[t][i] is the
// forecast at horizon step t for quantile Levels[i]. Mean is the central
// (point) forecast per step.
type QuantileForecast struct {
	Levels []float64
	Values [][]float64
	Mean   []float64
}

// Horizon returns the number of forecast steps.
func (f *QuantileForecast) Horizon() int { return len(f.Values) }

// At returns the forecast at horizon step t for quantile tau, linearly
// interpolating between the available levels and clamping outside them.
func (f *QuantileForecast) At(t int, tau float64) float64 {
	return quantileAt(f.Levels, f.Values[t], tau)
}

// quantileAt is At over one row: the value at tau of a row of values at
// the sorted levels, linearly interpolated and clamped at the edges.
func quantileAt(levels, row []float64, tau float64) float64 {
	if tau <= levels[0] {
		return row[0]
	}
	if tau >= levels[len(levels)-1] {
		return row[len(row)-1]
	}
	i := sort.SearchFloat64s(levels, tau)
	if levels[i] == tau {
		return row[i]
	}
	lo, hi := i-1, i
	frac := (tau - levels[lo]) / (levels[hi] - levels[lo])
	return row[lo]*(1-frac) + row[hi]*frac
}

// Step returns the quantile values at horizon step t in level order.
func (f *QuantileForecast) Step(t int) []float64 { return f.Values[t] }

// Enforce sorts each step's quantile values so they are monotonically
// non-decreasing in the quantile level (quantile crossing is a standard
// artifact of independently trained quantile heads).
func (f *QuantileForecast) Enforce() {
	for _, row := range f.Values {
		sort.Float64s(row)
	}
}

// Validate reports an error for structural problems: unsorted levels,
// ragged rows or non-finite values.
func (f *QuantileForecast) Validate() error {
	if !sort.Float64sAreSorted(f.Levels) {
		return fmt.Errorf("forecast: quantile levels %v not sorted", f.Levels)
	}
	for t, row := range f.Values {
		if len(row) != len(f.Levels) {
			return fmt.Errorf("forecast: step %d has %d values for %d levels", t, len(row), len(f.Levels))
		}
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("forecast: step %d level %v is %v", t, f.Levels[i], v)
			}
		}
	}
	if f.Mean != nil && len(f.Mean) != len(f.Values) {
		return fmt.Errorf("forecast: %d mean values for %d steps", len(f.Mean), len(f.Values))
	}
	return nil
}

// DefaultLevels is the quantile grid used in the paper's Table I
// evaluation.
var DefaultLevels = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// ScalingLevels is the grid the paper trains for auto-scaling guidance
// (Section IV-C).
var ScalingLevels = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}

// timeFeatureDim is the number of calendar covariates fed to the neural
// models: sin/cos of the daily phase and sin/cos of the weekly phase.
const timeFeatureDim = 4

// timeFeatures computes calendar covariates for the observation at absolute
// timestamp ts.
func timeFeatures(ts time.Time) []float64 {
	out := make([]float64, timeFeatureDim)
	timeFeaturesInto(out, ts)
	return out
}

// timeFeaturesInto writes the calendar covariates of ts into dst (len
// timeFeatureDim), the allocation-free form used on the sampling and BPTT
// hot paths.
func timeFeaturesInto(dst []float64, ts time.Time) {
	daySec := float64(ts.Hour()*3600 + ts.Minute()*60 + ts.Second())
	dayFrac := daySec / 86400
	weekFrac := (float64(ts.Weekday()) + dayFrac) / 7
	dst[0] = math.Sin(2 * math.Pi * dayFrac)
	dst[1] = math.Cos(2 * math.Pi * dayFrac)
	dst[2] = math.Sin(2 * math.Pi * weekFrac)
	dst[3] = math.Cos(2 * math.Pi * weekFrac)
}

// pathSeed derives an independent RNG seed for Monte-Carlo path `path`
// from the call-level base seed, using a splitmix64-style mix so nearby
// path indices land on well-separated streams. Deriving the seed from the
// path INDEX (never from the worker id) is what keeps sampled forecasts
// bit-identical across worker counts.
func pathSeed(base int64, path int) int64 {
	z := uint64(base) + uint64(path+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// pathSource is the rand.Source64 behind Monte-Carlo path sampling: a
// splitmix64 stream whose Seed is a single word store. math/rand's default
// source rebuilds a 607-entry feedback table on every Seed (~12k
// operations), which dominated the horizon-1 sampling round where each of
// the per-path reseeds outweighs the single LSTM step it randomizes. The
// stream depends only on the seed, so forecasts stay bit-identical across
// worker counts and between the cold and warm paths, which construct and
// reseed these sources identically.
type pathSource struct{ state uint64 }

func newPathRand(seed int64) *rand.Rand { return rand.New(&pathSource{state: uint64(seed)}) }

func (p *pathSource) Seed(seed int64) { p.state = uint64(seed) }

func (p *pathSource) Uint64() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *pathSource) Int63() int64 { return int64(p.Uint64() >> 1) }

// trainingWindows extracts (context, target) windows for supervised
// training with the given stride, bounding the total number of windows so
// training cost stays predictable.
func trainingWindows(s *timeseries.Series, ctx, h, maxWindows int) ([]timeseries.Window, error) {
	if s.Len() < ctx+h {
		return nil, ErrShortHistory
	}
	stride := 1
	if available := s.Len() - ctx - h + 1; available > maxWindows {
		stride = (available + maxWindows - 1) / maxWindows
	}
	return s.Windows(ctx, h, stride)
}

// contextTail returns the last ctx values of the history or ErrShortHistory.
func contextTail(history *timeseries.Series, ctx int) ([]float64, error) {
	if history.Len() < ctx {
		return nil, ErrShortHistory
	}
	return history.Values[history.Len()-ctx:], nil
}

// normalizeLevels copies, sorts and validates quantile levels.
func normalizeLevels(levels []float64) ([]float64, error) {
	if len(levels) == 0 {
		return nil, errors.New("forecast: no quantile levels requested")
	}
	out := make([]float64, len(levels))
	copy(out, levels)
	sort.Float64s(out)
	for _, l := range out {
		if l <= 0 || l >= 1 {
			return nil, fmt.Errorf("forecast: quantile level %v outside (0, 1)", l)
		}
	}
	return out, nil
}

// PinballLoss is the quantile (pinball) loss rho_tau(y, yhat) from
// Equation 1 of the paper: (tau - I(y < yhat)) * (yhat - y).
func PinballLoss(tau, y, yhat float64) float64 {
	u := y - yhat
	if u < 0 {
		return (tau - 1) * u // = (1-tau)*(yhat-y), positive
	}
	return tau * u
}

// PinballGrad is d PinballLoss / d yhat.
func PinballGrad(tau, y, yhat float64) float64 {
	if y < yhat {
		return 1 - tau
	}
	return -tau
}
