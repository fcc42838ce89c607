package timeseries

import (
	"math"
	"testing"
)

func TestStandardScaler(t *testing.T) {
	sc := &StandardScaler{}
	vals := []float64{2, 4, 6, 8}
	sc.Fit(vals)
	if sc.Mean != 5 {
		t.Errorf("Mean = %v", sc.Mean)
	}
	z := sc.Transform(vals)
	// Round-trip.
	back := sc.Inverse(z)
	for i := range vals {
		if !almostEqual(back[i], vals[i], 1e-9) {
			t.Errorf("round trip [%d] = %v, want %v", i, back[i], vals[i])
		}
	}
	// Normalized stats.
	zs := New("z", t0, DefaultStep, z)
	if !almostEqual(zs.Mean(), 0, 1e-9) || !almostEqual(zs.Std(), 1, 1e-9) {
		t.Errorf("normalized mean/std = %v/%v", zs.Mean(), zs.Std())
	}
}

func TestStandardScalerConstantSeries(t *testing.T) {
	sc := &StandardScaler{}
	sc.Fit([]float64{7, 7, 7})
	if sc.Std != 1 {
		t.Errorf("constant series Std = %v, want fallback 1", sc.Std)
	}
	sc.Fit(nil)
	if sc.Std != 1 || sc.Mean != 0 {
		t.Errorf("empty fit = mean %v std %v", sc.Mean, sc.Std)
	}
}

func TestDecomposeAdditive(t *testing.T) {
	// Build trend + seasonal signal.
	period := 12
	n := 10 * period
	vals := make([]float64, n)
	for i := range vals {
		trend := 0.1 * float64(i)
		seasonal := 5 * math.Sin(2*math.Pi*float64(i)/float64(period))
		vals[i] = trend + seasonal
	}
	s := New("seasonal", t0, DefaultStep, vals)
	dec, err := DecomposeAdditive(s, period)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Seasonal) != period {
		t.Fatalf("seasonal len = %d", len(dec.Seasonal))
	}
	// Seasonal component should be mean-centred and capture the sine.
	mean := 0.0
	for _, v := range dec.Seasonal {
		mean += v
	}
	if !almostEqual(mean/float64(period), 0, 1e-9) {
		t.Errorf("seasonal mean = %v", mean/float64(period))
	}
	peak := dec.Seasonal[3] // sin peaks at i=3 for period 12
	if peak < 4 {
		t.Errorf("seasonal peak = %v, want near 5", peak)
	}
	// Residual should be small in the interior.
	for i := period; i < n-period; i++ {
		if r := dec.Residual[i]; !math.IsNaN(r) && math.Abs(r) > 0.5 {
			t.Errorf("residual[%d] = %v, too large", i, r)
		}
	}
	if _, err := DecomposeAdditive(New("tiny", t0, DefaultStep, []float64{1, 2, 3}), 12); err == nil {
		t.Error("DecomposeAdditive should reject short series")
	}
}

func TestCenteredMovingAverageOdd(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	out := centeredMovingAverage(vals, 3)
	if !math.IsNaN(out[0]) || !math.IsNaN(out[4]) {
		t.Error("edges should be NaN")
	}
	for i := 1; i <= 3; i++ {
		if !almostEqual(out[i], float64(i+1), 1e-12) {
			t.Errorf("ma[%d] = %v", i, out[i])
		}
	}
}
