package forecast

import (
	"math"
	"testing"

	"robustscale/internal/timeseries"
)

// biasedQF is a deliberately miscalibrated forecaster: all its quantiles
// are the last value (zero spread), so its 0.9-quantile under-covers
// badly. Conformal wrapping must repair the coverage.
type biasedQF struct{ fitted bool }

func (b *biasedQF) Name() string { return "biased" }
func (b *biasedQF) Fit(*timeseries.Series) error {
	b.fitted = true
	return nil
}
func (b *biasedQF) Predict(history *timeseries.Series, h int) ([]float64, error) {
	out := make([]float64, h)
	last := history.At(history.Len() - 1)
	for i := range out {
		out[i] = last
	}
	return out, nil
}
func (b *biasedQF) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	mean, err := b.Predict(history, h)
	if err != nil {
		return nil, err
	}
	f := &QuantileForecast{Levels: levels, Values: make([][]float64, h), Mean: mean}
	for t := 0; t < h; t++ {
		row := make([]float64, len(levels))
		for i := range levels {
			row[i] = mean[t] // zero spread: every quantile identical
		}
		f.Values[t] = row
	}
	return f, nil
}

func conformalCoverage(t *testing.T, m QuantileForecaster, s *timeseries.Series, start, h int, tau float64) float64 {
	t.Helper()
	covered, total := 0, 0
	for origin := start; origin+h <= s.Len(); origin += h {
		f, err := m.PredictQuantiles(s.Slice(0, origin), h, []float64{tau})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < h; step++ {
			if f.Values[step][0] >= s.At(origin+step) {
				covered++
			}
			total++
		}
	}
	return float64(covered) / float64(total)
}

func TestConformalRepairsCoverage(t *testing.T) {
	// A level series with noise: the zero-spread forecaster covers ~50%
	// at every nominal level regardless of forecast origin, which is the
	// clean premise for checking the repair (a seasonal series would
	// additionally entangle origin phase with the score distribution).
	s := noisySine(1200, 48, 100, 0, 5, 91)
	train := s.Slice(0, 900)

	raw := &biasedQF{}
	if err := raw.Fit(train); err != nil {
		t.Fatal(err)
	}
	wrapped := NewConformal(&biasedQF{})
	wrapped.Horizon = 48
	wrapped.Levels = []float64{0.5, 0.8, 0.9}
	if err := wrapped.Fit(train); err != nil {
		t.Fatal(err)
	}

	rawCov := conformalCoverage(t, raw, s, 900, 48, 0.9)
	fixedCov := conformalCoverage(t, wrapped, s, 900, 48, 0.9)
	// The zero-spread forecaster covers ~50% at the "0.9" level; the
	// conformal wrap must push it near nominal.
	if rawCov > 0.7 {
		t.Fatalf("raw coverage %v unexpectedly good; test premise broken", rawCov)
	}
	if fixedCov < 0.8 {
		t.Errorf("conformal coverage = %v, want near 0.9 (raw was %v)", fixedCov, rawCov)
	}
	if math.Abs(fixedCov-0.9) > math.Abs(rawCov-0.9) {
		t.Errorf("conformal (%v) further from nominal than raw (%v)", fixedCov, rawCov)
	}
}

func TestConformalName(t *testing.T) {
	c := NewConformal(&biasedQF{})
	if c.Name() != "biased-conformal" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestConformalInterpolatesOffsets(t *testing.T) {
	s := noisySine(1000, 48, 100, 20, 5, 92)
	c := NewConformal(&biasedQF{})
	c.Horizon = 48
	c.Levels = []float64{0.5, 0.9}
	if err := c.Fit(s.Slice(0, 800)); err != nil {
		t.Fatal(err)
	}
	// A level between the calibrated grid points interpolates between
	// their offsets.
	mid := quantileAt(c.Levels, c.offsets, 0.7)
	lo, hi := quantileAt(c.Levels, c.offsets, 0.5), quantileAt(c.Levels, c.offsets, 0.9)
	if lo > hi {
		lo, hi = hi, lo
	}
	if mid < lo-1e-9 || mid > hi+1e-9 {
		t.Errorf("offset(0.7) = %v outside [%v, %v]", mid, lo, hi)
	}
	// Outside the grid clamps.
	if quantileAt(c.Levels, c.offsets, 0.99) != quantileAt(c.Levels, c.offsets, 0.9) {
		t.Errorf("offset above grid should clamp")
	}
}

func TestConformalValidation(t *testing.T) {
	s := sineSeries(400, 48, 100, 10)
	c := NewConformal(&biasedQF{})
	if _, err := c.PredictQuantiles(s, 4, []float64{0.5}); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
	if _, err := c.Predict(s, 4); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
	bad := NewConformal(&biasedQF{})
	bad.CalibFrac = 1.5
	if err := bad.Fit(s); err == nil {
		t.Error("bad fraction should fail")
	}
	tiny := NewConformal(&biasedQF{})
	tiny.Horizon = 1000
	if err := tiny.Fit(s); err == nil {
		t.Error("horizon beyond calibration span should fail")
	}
}

func TestConformalOnRealModel(t *testing.T) {
	// End-to-end: conformal-wrapped seasonal-naive stays a valid quantile
	// forecaster with ordered bands.
	s := noisySine(900, 48, 100, 20, 3, 93)
	c := NewConformal(NewSeasonalNaive(48))
	c.Horizon = 48
	if err := c.Fit(s.Slice(0, 700)); err != nil {
		t.Fatal(err)
	}
	f, err := c.PredictQuantiles(s.Slice(0, 800), 48, []float64{0.5, 0.7, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for step := range f.Values {
		row := f.Values[step]
		if !(row[0] <= row[1] && row[1] <= row[2]) {
			t.Fatalf("step %d not ordered: %v", step, row)
		}
	}
}
