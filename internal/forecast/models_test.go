package forecast

import (
	"math"
	"math/rand"
	"testing"

	"robustscale/internal/timeseries"
)

// noisySine builds a seasonal series with Gaussian noise of the given std.
func noisySine(n, period int, level, amp, noise float64, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = level + amp*math.Sin(2*math.Pi*float64(i)/float64(period)) + rng.NormFloat64()*noise
	}
	return timeseries.New("noisy-sine", t0, timeseries.DefaultStep, vals)
}

// splitHoldout returns the series minus the last h points, for evaluating
// h-step forecasts against the held-out tail.
func splitHoldout(s *timeseries.Series, h int) (history *timeseries.Series, from int) {
	return s.Slice(0, s.Len()-h), s.Len() - h
}

// newARIMA returns an untrained, non-seasonal ARIMA(p, d, q) model.
func newARIMA(p, d, q int) *ARIMA { return &ARIMA{P: p, D: d, Q: q} }

func TestARIMAOnAR1Process(t *testing.T) {
	// AR(1) with phi=0.8: ARIMA(1,0,0) should recover the coefficient.
	rng := rand.New(rand.NewSource(1))
	n := 600
	vals := make([]float64, n)
	for i := 1; i < n; i++ {
		vals[i] = 0.8*vals[i-1] + rng.NormFloat64()
	}
	s := timeseries.New("ar1", t0, timeseries.DefaultStep, vals)
	m := newARIMA(1, 0, 0)
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	if !almost(m.phi[0], 0.8, 0.1) {
		t.Errorf("phi = %v, want ~0.8", m.phi[0])
	}
	if !almost(m.sigma2, 1, 0.2) {
		t.Errorf("sigma2 = %v, want ~1", m.sigma2)
	}
}

func TestARIMAForecastSeasonalish(t *testing.T) {
	s := noisySine(800, 48, 100, 20, 1, 2)
	hist, from := splitHoldout(s, 12)
	// An AR span covering the full season lets the model lock onto the
	// cycle.
	m := newARIMA(48, 0, 1)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Far better than predicting the global mean (MSE ~ amp^2/2 = 200).
	if mse := mseAgainst(pred, s, from); mse > 50 {
		t.Errorf("ARIMA MSE = %v", mse)
	}
}

func TestARIMAQuantilesOrderedAndCovering(t *testing.T) {
	s := noisySine(800, 48, 100, 20, 2, 3)
	hist, _ := splitHoldout(s, 24)
	m := newARIMA(4, 0, 1)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	f, err := m.PredictQuantiles(hist, 24, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 24; step++ {
		row := f.Step(step)
		if !(row[0] < row[1] && row[1] < row[2]) {
			t.Errorf("step %d quantiles not ordered: %v", step, row)
		}
	}
	// Variance widens with the horizon.
	w0 := f.Values[0][2] - f.Values[0][0]
	wN := f.Values[23][2] - f.Values[23][0]
	if wN <= w0 {
		t.Errorf("interval did not widen: %v vs %v", w0, wN)
	}
}

func TestARIMADifferencingHandlesTrend(t *testing.T) {
	// Linear trend + noise: d=1 should track it.
	rng := rand.New(rand.NewSource(4))
	n := 400
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 10 + 0.5*float64(i) + rng.NormFloat64()
	}
	s := timeseries.New("trend", t0, timeseries.DefaultStep, vals)
	hist, from := splitHoldout(s, 10)
	m := newARIMA(2, 1, 1)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(hist, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mse := mseAgainst(pred, s, from); mse > 10 {
		t.Errorf("trend MSE = %v", mse)
	}
}

func TestSeasonalARIMA(t *testing.T) {
	// A strongly seasonal series with a short period: seasonal
	// differencing should let a small ARMA track it accurately.
	s := noisySine(600, 24, 100, 30, 1, 21)
	hist, from := splitHoldout(s, 24)
	m := NewSeasonalARIMA(4, 0, 1, 24)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if m.Name() != "arima(4,0,1)s24" {
		t.Errorf("Name = %q", m.Name())
	}
	pred, err := m.Predict(hist, 24)
	if err != nil {
		t.Fatal(err)
	}
	// The plain (non-seasonal) model with the same order should be much
	// worse; and the seasonal one should beat predicting the level
	// (variance = 450).
	seasonalMSE := mseAgainst(pred, s, from)
	if seasonalMSE > 50 {
		t.Errorf("seasonal ARIMA MSE = %v", seasonalMSE)
	}
	plain := newARIMA(4, 0, 1)
	if err := plain.Fit(hist); err != nil {
		t.Fatal(err)
	}
	plainPred, err := plain.Predict(hist, 24)
	if err != nil {
		t.Fatal(err)
	}
	if plainMSE := mseAgainst(plainPred, s, from); plainMSE < seasonalMSE {
		t.Errorf("plain MSE %v unexpectedly beats seasonal %v", plainMSE, seasonalMSE)
	}
}

func TestSeasonalARIMALongHorizonRecursion(t *testing.T) {
	// Horizon longer than the seasonal period exercises the recursive
	// branch of the seasonal integration.
	s := noisySine(600, 24, 100, 30, 1, 22)
	hist, from := splitHoldout(s, 48)
	m := NewSeasonalARIMA(2, 0, 1, 24)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	f, err := m.PredictQuantiles(hist, 48, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if mse := mseAgainst(f.Mean, s, from); mse > 80 {
		t.Errorf("long-horizon seasonal MSE = %v", mse)
	}
}

func TestSeasonalARIMARejectsShortSeries(t *testing.T) {
	m := NewSeasonalARIMA(2, 0, 1, 200)
	if err := m.Fit(sineSeries(150, 24, 5, 1)); err == nil {
		t.Error("Fit shorter than the seasonal period should fail")
	}
}

func TestARIMANotFitted(t *testing.T) {
	m := newARIMA(1, 0, 0)
	s := sineSeries(100, 10, 5, 1)
	if _, err := m.PredictQuantiles(s, 5, []float64{0.5}); err != ErrNotFitted {
		t.Errorf("err = %v, want ErrNotFitted", err)
	}
}

func TestARIMARejectsTooShortTraining(t *testing.T) {
	m := newARIMA(3, 0, 3)
	s := sineSeries(20, 10, 5, 1)
	if err := m.Fit(s); err == nil {
		t.Error("Fit on tiny series should fail")
	}
}

func smallMLP() *MLP {
	return NewMLP(MLPConfig{Context: 24, Hidden: 24, Epochs: 40, LR: 3e-3, Seed: 1, MaxWindows: 128})
}

func TestMLPLearnsSine(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 0.5, 5)
	hist, from := splitHoldout(s, 12)
	m := smallMLP()
	if err := m.FitHorizon(hist, 12); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Should beat predicting the level (variance = amp^2/2 = 50).
	if mse := mseAgainst(pred, s, from); mse > 25 {
		t.Errorf("MLP MSE = %v", mse)
	}
}

func TestMLPQuantileCoverage(t *testing.T) {
	s := noisySine(900, 24, 50, 10, 2, 6)
	train := s.Slice(0, 700)
	m := smallMLP()
	if err := m.FitHorizon(train, 12); err != nil {
		t.Fatal(err)
	}
	// Evaluate coverage of the 80% interval across many forecast origins.
	inside, total := 0, 0
	for origin := 700; origin+12 <= 900; origin += 12 {
		f, err := m.PredictQuantiles(s.Slice(0, origin), 12, []float64{0.1, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			y := s.At(origin + step)
			if y >= f.Values[step][0] && y <= f.Values[step][1] {
				inside++
			}
			total++
		}
	}
	// The MLP under-covers its nominal intervals (Table I of the paper
	// reports the same: MLP coverage sits well below the nominal level),
	// so the bound only requires the interval to be meaningfully
	// informative rather than fully calibrated.
	if frac := float64(inside) / float64(total); frac < 0.40 {
		t.Errorf("80%% interval covered %.0f%% of %d points", frac*100, total)
	}
}

func TestMLPHorizonBounds(t *testing.T) {
	s := noisySine(400, 24, 50, 10, 1, 7)
	m := smallMLP()
	if err := m.FitHorizon(s, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(s, 12); err == nil {
		t.Error("Predict beyond trained horizon should fail")
	}
	if _, err := m.Predict(s.Slice(0, 10), 6); err != ErrShortHistory {
		t.Errorf("short history err = %v", err)
	}
	if err := m.FitHorizon(s, 0); err == nil {
		t.Error("FitHorizon(0) should fail")
	}
}

func smallDeepAR() *DeepAR {
	return NewDeepAR(DeepARConfig{
		Context: 24, Hidden: 16, Epochs: 10, LR: 5e-3, Seed: 1,
		MaxWindows: 96, Samples: 60, TrainHorizon: 12,
	})
}

func TestDeepARLearnsSine(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 0.5, 8)
	hist, from := splitHoldout(s, 12)
	m := smallDeepAR()
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	if mse := mseAgainst(pred, s, from); mse > 30 {
		t.Errorf("DeepAR MSE = %v", mse)
	}
}

func TestDeepARQuantilesWellFormed(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 2, 9)
	hist, _ := splitHoldout(s, 12)
	m := smallDeepAR()
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	f, err := m.PredictQuantiles(hist, 12, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		row := f.Step(step)
		if !(row[0] <= row[1] && row[1] <= row[2]) {
			t.Errorf("step %d quantiles not ordered: %v", step, row)
		}
	}
	if f.Horizon() != 12 {
		t.Errorf("Horizon = %d", f.Horizon())
	}
}

func TestDeepARDeterministicGivenSeed(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 10)
	hist, _ := splitHoldout(s, 6)
	m1 := smallDeepAR()
	m2 := smallDeepAR()
	if err := m1.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(hist); err != nil {
		t.Fatal(err)
	}
	f1, err := m1.PredictQuantiles(hist, 6, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m2.PredictQuantiles(hist, 6, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Values {
		if f1.Values[i][0] != f2.Values[i][0] {
			t.Fatalf("step %d: %v != %v", i, f1.Values[i][0], f2.Values[i][0])
		}
	}
}

func TestDeepARGaussianEmission(t *testing.T) {
	cfg := DeepARConfig{
		Context: 24, Hidden: 16, Epochs: 8, LR: 5e-3, Seed: 1,
		MaxWindows: 96, Samples: 40, TrainHorizon: 6, Emission: EmitGaussian,
	}
	s := noisySine(500, 24, 50, 10, 1, 11)
	hist, _ := splitHoldout(s, 6)
	m := NewDeepAR(cfg)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	f, err := m.PredictQuantiles(hist, 6, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeepARNotFitted(t *testing.T) {
	m := smallDeepAR()
	s := sineSeries(100, 24, 5, 1)
	if _, err := m.Predict(s, 4); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
}

func smallTFT(levels []float64) *TFT {
	return NewTFT(TFTConfig{
		Context: 24, Hidden: 16, Epochs: 12, LR: 5e-3, Seed: 1,
		MaxWindows: 96, Levels: levels, TrainHorizon: 12,
	})
}

func TestTFTLearnsSine(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 0.5, 12)
	hist, from := splitHoldout(s, 12)
	m := smallTFT([]float64{0.1, 0.5, 0.9})
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	if mse := mseAgainst(pred, s, from); mse > 30 {
		t.Errorf("TFT MSE = %v", mse)
	}
}

func TestTFTQuantileGridInterpolation(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 2, 13)
	hist, _ := splitHoldout(s, 12)
	m := smallTFT([]float64{0.1, 0.5, 0.9})
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	f, err := m.PredictQuantiles(hist, 12, []float64{0.3, 0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		row := f.Step(step)
		if !(row[0] <= row[1] && row[1] <= row[2]) {
			t.Errorf("step %d interpolated quantiles not ordered: %v", step, row)
		}
	}
}

func TestTFTQuantilesMostlyOrderedWide(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 3, 14)
	hist, from := splitHoldout(s, 12)
	m := smallTFT([]float64{0.1, 0.5, 0.9})
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	f, err := m.PredictQuantiles(hist, 12, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// The 0.9 forecast should sit above the realized value more often
	// than below.
	above := 0
	for step := 0; step < 12; step++ {
		if f.Values[step][1] >= s.At(from+step) {
			above++
		}
	}
	if above < 8 {
		t.Errorf("0.9 quantile above actual only %d/12 times", above)
	}
}

func TestTFTPointName(t *testing.T) {
	p := NewTFTPoint(TFTConfig{Context: 24, Hidden: 8, Epochs: 1, TrainHorizon: 4})
	if p.Name() != "tft-point" {
		t.Errorf("Name = %q", p.Name())
	}
	full := smallTFT(nil)
	if full.Name() != "tft" {
		t.Errorf("Name = %q", full.Name())
	}
	if len(p.Levels()) != 1 || p.Levels()[0] != 0.5 {
		t.Errorf("point levels = %v", p.Levels())
	}
}

func TestTFTNotFittedAndBadHorizon(t *testing.T) {
	m := smallTFT(nil)
	s := sineSeries(100, 24, 5, 1)
	if _, err := m.Predict(s, 4); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
	if err := m.Fit(sineSeries(300, 24, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(s, 0); err == nil {
		t.Error("zero horizon should fail")
	}
}

func TestQB5000LearnsSine(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 0.5, 15)
	hist, from := splitHoldout(s, 12)
	m := NewQB5000(QB5000Config{
		Context: 24, Hidden: 12, Epochs: 6, LR: 5e-3, Seed: 1,
		MaxWindows: 96, TrainHorizon: 12,
	})
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	if mse := mseAgainst(pred, s, from); mse > 25 {
		t.Errorf("QB5000 MSE = %v", mse)
	}
}

func TestQB5000Errors(t *testing.T) {
	m := NewQB5000(QB5000Config{Context: 24, TrainHorizon: 6, Epochs: 1})
	s := sineSeries(300, 24, 5, 1)
	if _, err := m.Predict(s, 4); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(s, 12); err == nil {
		t.Error("beyond trained horizon should fail")
	}
	if _, err := m.Predict(s, 0); err == nil {
		t.Error("zero horizon should fail")
	}
}

func TestPaddedIncreasesForecasts(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 16)
	hist, _ := splitHoldout(s, 12)
	base := NewQB5000(QB5000Config{Context: 24, Hidden: 8, Epochs: 3, TrainHorizon: 12, MaxWindows: 64})
	p := NewPadded(base)
	if err := p.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if p.Name() != "qb5000-padding" {
		t.Errorf("Name = %q", p.Name())
	}
	raw, err := base.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	// No observed errors yet: identical to the base.
	padded, err := p.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if padded[i] != raw[i] {
			t.Fatal("padding without observations should be a no-op")
		}
	}
	// Observe systematic 20% underestimation; padding should lift.
	actual := make([]float64, len(raw))
	for i, v := range raw {
		actual[i] = v * 1.2
	}
	p.Observe(actual, raw)
	padded2, err := p.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if padded2[i] <= raw[i] {
			t.Fatalf("padded[%d] = %v not above raw %v", i, padded2[i], raw[i])
		}
	}
	if pad := p.Pad(); !almost(pad, 0.2, 1e-9) {
		t.Errorf("Pad = %v, want 0.2", pad)
	}
}

func TestPaddedIgnoresOverestimation(t *testing.T) {
	p := NewPadded(nil)
	p.Observe([]float64{8, 9}, []float64{10, 10})
	if pad := p.Pad(); pad != 0 {
		t.Errorf("overestimation produced pad %v", pad)
	}
	// Zero predictions are skipped.
	p.Observe([]float64{5}, []float64{0})
	if pad := p.Pad(); pad != 0 {
		t.Errorf("zero-pred produced pad %v", pad)
	}
}

func TestPaddedHistoryBounded(t *testing.T) {
	p := NewPadded(nil)
	p.MaxHistory = 10
	for i := 0; i < 50; i++ {
		p.Observe([]float64{2}, []float64{1})
	}
	if len(p.errs) != 10 {
		t.Errorf("history len = %d, want 10", len(p.errs))
	}
}

func TestPaddedBootstrap(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 2, 17)
	hist, _ := splitHoldout(s, 12)
	base := NewQB5000(QB5000Config{Context: 24, Hidden: 8, Epochs: 3, TrainHorizon: 12, MaxWindows: 64})
	p := NewPadded(base)
	if err := p.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if err := p.Bootstrap(hist, 12, 3); err != nil {
		t.Fatal(err)
	}
	if len(p.errs) == 0 {
		t.Error("Bootstrap recorded no errors")
	}
}

func TestTune(t *testing.T) {
	s := noisySine(700, 24, 50, 10, 1, 18)
	train, val := s.Slice(0, 500), s.Slice(500, 700)
	results, best, err := Tune(train, val, 12, []float64{0.5, 0.9}, []Candidate{
		{Label: "arima(1,0,0)", Build: func() QuantileForecaster { return newARIMA(1, 0, 0) }},
		{Label: "arima(8,0,2)", Build: func() QuantileForecaster { return newARIMA(8, 0, 2) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || best < 0 || best > 1 {
		t.Fatalf("results = %v best = %d", results, best)
	}
	for _, r := range results {
		if r.Score < 0 || math.IsNaN(r.Score) {
			t.Errorf("score %v invalid", r.Score)
		}
	}
	if _, _, err := Tune(train, val, 12, []float64{0.5}, nil); err == nil {
		t.Error("empty candidates should fail")
	}
}
