// Package timeseries provides the time-series primitives shared by the
// workload forecasters and the auto-scaling manager: a regularly sampled
// Series type, train/validation/test splitting, standardization, and
// sliding-window extraction.
//
// All series in this repository are regularly sampled; the paper aggregates
// the Alibaba and Google cluster traces at 10-minute intervals, the step
// every generated trace uses.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// DefaultStep is the sampling interval used throughout the paper: workload
// traces are aggregated at 10-minute intervals.
const DefaultStep = 10 * time.Minute

// Series is a regularly sampled univariate time series. Values[i] is the
// observation at Start + i*Step.
type Series struct {
	// Name identifies the series (e.g. "alibaba/cpu").
	Name string
	// Start is the timestamp of Values[0].
	Start time.Time
	// Step is the sampling interval between consecutive values.
	Step time.Duration
	// Values holds the observations.
	Values []float64
}

// New returns a Series with the given name, start, step and values. The
// values slice is used directly (not copied).
func New(name string, start time.Time, step time.Duration, values []float64) *Series {
	if step <= 0 {
		step = DefaultStep
	}
	return &Series{Name: name, Start: start, Step: step, Values: values}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// At returns the i-th observation. It panics if i is out of range, matching
// slice semantics.
func (s *Series) At(i int) float64 { return s.Values[i] }

// TimeAt returns the timestamp of the i-th observation.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	values := make([]float64, len(s.Values))
	copy(values, s.Values)
	return &Series{Name: s.Name, Start: s.Start, Step: s.Step, Values: values}
}

// Slice returns a view of the series covering observations [i, j). The
// underlying values are shared with the receiver.
func (s *Series) Slice(i, j int) *Series {
	return &Series{
		Name:   s.Name,
		Start:  s.TimeAt(i),
		Step:   s.Step,
		Values: s.Values[i:j],
	}
}

// Last returns the final n observations as a view. If the series is shorter
// than n, the whole series is returned.
func (s *Series) Last(n int) *Series {
	if n > len(s.Values) {
		n = len(s.Values)
	}
	return s.Slice(len(s.Values)-n, len(s.Values))
}

// Min returns the smallest observation, or +Inf for an empty series.
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.Values {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation, or -Inf for an empty series.
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the arithmetic mean, or NaN for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Std returns the population standard deviation, or NaN for an empty series.
func (s *Series) Std() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	mean := s.Mean()
	ss := 0.0
	for _, v := range s.Values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.Values)))
}

// Quantile returns the q-th empirical quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It returns NaN for an empty series.
func (s *Series) Quantile(q float64) float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(s.Values))
	copy(sorted, s.Values)
	sort.Float64s(sorted)
	return InterpolatedQuantile(sorted, q)
}

// InterpolatedQuantile returns the q-th quantile of an already sorted slice
// using linear interpolation. It panics on an empty slice.
func InterpolatedQuantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Validate reports an error if the series is structurally invalid: a
// non-positive step, or non-finite observations.
func (s *Series) Validate() error {
	if s.Step <= 0 {
		return fmt.Errorf("timeseries: series %q has non-positive step %v", s.Name, s.Step)
	}
	for i, v := range s.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("timeseries: series %q has non-finite value %v at index %d", s.Name, v, i)
		}
	}
	return nil
}

// ErrTooShort is returned when a series does not have enough observations
// for a requested operation (e.g. windowing with a long context).
var ErrTooShort = errors.New("timeseries: series too short")

// Split divides the series into train, validation and test partitions using
// the given fractions. trainFrac+valFrac must be < 1; the remainder is the
// test set. Partitions are contiguous views in chronological order.
func (s *Series) Split(trainFrac, valFrac float64) (train, val, test *Series, err error) {
	if trainFrac <= 0 || valFrac < 0 || trainFrac+valFrac >= 1 {
		return nil, nil, nil, fmt.Errorf("timeseries: invalid split fractions train=%v val=%v", trainFrac, valFrac)
	}
	n := len(s.Values)
	trainEnd := int(float64(n) * trainFrac)
	valEnd := trainEnd + int(float64(n)*valFrac)
	if trainEnd == 0 || valEnd >= n {
		return nil, nil, nil, ErrTooShort
	}
	return s.Slice(0, trainEnd), s.Slice(trainEnd, valEnd), s.Slice(valEnd, n), nil
}

// Diff returns the d-th order difference of the series. The result is
// shorter by d observations. Differencing is the "I" in ARIMA.
func (s *Series) Diff(d int) *Series {
	values := make([]float64, len(s.Values))
	copy(values, s.Values)
	for k := 0; k < d; k++ {
		if len(values) < 2 {
			values = nil
			break
		}
		next := make([]float64, len(values)-1)
		for i := 1; i < len(values); i++ {
			next[i-1] = values[i] - values[i-1]
		}
		values = next
	}
	return &Series{
		Name:   s.Name,
		Start:  s.TimeAt(d),
		Step:   s.Step,
		Values: values,
	}
}

// Window is a (context, target) pair extracted from a series: Context holds
// the most recent T observations before the forecast origin and Target the
// next H observations.
type Window struct {
	// Origin is the index of the first target observation in the source
	// series.
	Origin int
	// Context holds the T observations immediately preceding the origin.
	Context []float64
	// Target holds the H observations starting at the origin.
	Target []float64
}

// Windows extracts every sliding (context, target) window with context
// length ctx, horizon h and the given stride between forecast origins.
// Returns ErrTooShort when no complete window fits.
func (s *Series) Windows(ctx, h, stride int) ([]Window, error) {
	if ctx <= 0 || h <= 0 || stride <= 0 {
		return nil, fmt.Errorf("timeseries: invalid window spec ctx=%d h=%d stride=%d", ctx, h, stride)
	}
	n := len(s.Values)
	if n < ctx+h {
		return nil, ErrTooShort
	}
	var out []Window
	for origin := ctx; origin+h <= n; origin += stride {
		out = append(out, Window{
			Origin:  origin,
			Context: s.Values[origin-ctx : origin],
			Target:  s.Values[origin : origin+h],
		})
	}
	return out, nil
}
