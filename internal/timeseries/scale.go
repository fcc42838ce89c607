package timeseries

import (
	"fmt"
	"math"
)

// StandardScaler normalizes to zero mean and unit variance. Neural
// forecasters train in normalized space; the auto-scaling manager consumes
// forecasts in the original units.
type StandardScaler struct {
	Mean, Std float64
}

// Fit computes mean and standard deviation, guarding against a degenerate
// constant series with a unit fallback.
func (s *StandardScaler) Fit(values []float64) {
	n := float64(len(values))
	if n == 0 {
		s.Mean, s.Std = 0, 1
		return
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	s.Mean = sum / n
	ss := 0.0
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / n)
	if s.Std < 1e-12 {
		s.Std = 1
	}
}

// Transform maps raw values to z-scores.
func (s *StandardScaler) Transform(values []float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = (v - s.Mean) / s.Std
	}
	return out
}

// Inverse maps z-scores back to raw values.
func (s *StandardScaler) Inverse(values []float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = s.InverseOne(v)
	}
	return out
}

// TransformOne maps one raw value to a z-score; elementwise identical to
// Transform, for hot paths that normalize streaming observations without
// allocating a slice.
func (s *StandardScaler) TransformOne(v float64) float64 { return (v - s.Mean) / s.Std }

// InverseOne maps one z-score back to a raw value.
func (s *StandardScaler) InverseOne(v float64) float64 { return v*s.Std + s.Mean }

// SeasonalDecomposition is a classical additive decomposition of a series
// into trend, a repeating seasonal component and a remainder. The period is
// expressed in steps (e.g. 144 for a daily cycle at 10-minute sampling).
type SeasonalDecomposition struct {
	Period   int
	Trend    []float64
	Seasonal []float64 // one full period, mean-centred
	Residual []float64
}

// DecomposeAdditive performs a classical moving-average additive
// decomposition with the given period.
func DecomposeAdditive(s *Series, period int) (*SeasonalDecomposition, error) {
	n := s.Len()
	if period < 2 || n < 2*period {
		return nil, fmt.Errorf("timeseries: series %q too short (%d) for period %d decomposition", s.Name, n, period)
	}
	trend := centeredMovingAverage(s.Values, period)

	// Average detrended values per phase of the cycle.
	sums := make([]float64, period)
	counts := make([]int, period)
	for i := 0; i < n; i++ {
		if math.IsNaN(trend[i]) {
			continue
		}
		phase := i % period
		sums[phase] += s.Values[i] - trend[i]
		counts[phase]++
	}
	seasonal := make([]float64, period)
	mean := 0.0
	for p := 0; p < period; p++ {
		if counts[p] > 0 {
			seasonal[p] = sums[p] / float64(counts[p])
		}
		mean += seasonal[p]
	}
	mean /= float64(period)
	for p := range seasonal {
		seasonal[p] -= mean
	}

	residual := make([]float64, n)
	for i := 0; i < n; i++ {
		t := trend[i]
		if math.IsNaN(t) {
			residual[i] = math.NaN()
			continue
		}
		residual[i] = s.Values[i] - t - seasonal[i%period]
	}
	return &SeasonalDecomposition{Period: period, Trend: trend, Seasonal: seasonal, Residual: residual}, nil
}

// centeredMovingAverage computes a centred moving average of the given
// window; for even windows a 2xMA is used, as in classical decomposition.
// Positions without full coverage are NaN.
func centeredMovingAverage(values []float64, window int) []float64 {
	n := len(values)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	if window%2 == 1 {
		half := window / 2
		for i := half; i < n-half; i++ {
			sum := 0.0
			for j := i - half; j <= i+half; j++ {
				sum += values[j]
			}
			out[i] = sum / float64(window)
		}
		return out
	}
	// Even window: average two shifted windows.
	half := window / 2
	for i := half; i < n-half; i++ {
		sum := values[i-half]/2 + values[i+half]/2
		for j := i - half + 1; j <= i+half-1; j++ {
			sum += values[j]
		}
		out[i] = sum / float64(window)
	}
	return out
}
