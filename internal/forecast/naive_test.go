package forecast

import (
	"testing"

	"robustscale/internal/timeseries"
)

func TestNaiveForecast(t *testing.T) {
	s := sineSeries(300, 24, 100, 10)
	m := NewNaive(12)
	if err := m.Fit(s.Slice(0, 280)); err != nil {
		t.Fatal(err)
	}
	hist := s.Slice(0, 280)
	pred, err := m.Predict(hist, 12)
	if err != nil {
		t.Fatal(err)
	}
	last := hist.At(hist.Len() - 1)
	for i, p := range pred {
		if p != last {
			t.Fatalf("pred[%d] = %v, want flat %v", i, p, last)
		}
	}
	f, err := m.PredictQuantiles(hist, 12, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// Bands widen with the horizon (k-step changes of a sine grow).
	w0 := f.Values[0][1] - f.Values[0][0]
	wLast := f.Values[11][1] - f.Values[11][0]
	if wLast <= w0 {
		t.Errorf("band did not widen: %v vs %v", w0, wLast)
	}
}

func TestNaiveErrors(t *testing.T) {
	m := NewNaive(12)
	s := sineSeries(100, 24, 5, 1)
	if _, err := m.Predict(s, 4); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
	if err := NewNaive(0).Fit(s); err == nil {
		t.Error("zero horizon should fail")
	}
	if err := NewNaive(200).Fit(s); err != ErrShortHistory {
		t.Error("short history should fail")
	}
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(s, 24); err == nil {
		t.Error("beyond fitted horizon should fail")
	}
	empty := timeseries.New("e", t0, timeseries.DefaultStep, nil)
	if _, err := m.Predict(empty, 4); err != ErrShortHistory {
		t.Errorf("err = %v", err)
	}
}

func TestSeasonalNaiveTracksCycle(t *testing.T) {
	s := sineSeries(300, 24, 100, 10)
	m := NewSeasonalNaive(24)
	hist, from := splitHoldout(s, 24)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(hist, 24)
	if err != nil {
		t.Fatal(err)
	}
	// On a noiseless periodic signal seasonal-naive is exact.
	if mse := mseAgainst(pred, s, from); mse > 1e-18 {
		t.Errorf("seasonal naive MSE = %v on pure cycle", mse)
	}
	if m.Name() != "seasonal-naive-24" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestSeasonalNaiveBeatsNaiveOnCyclicData(t *testing.T) {
	s := noisySine(600, 24, 100, 30, 1, 41)
	hist, from := splitHoldout(s, 24)
	sn := NewSeasonalNaive(24)
	if err := sn.Fit(hist); err != nil {
		t.Fatal(err)
	}
	nv := NewNaive(24)
	if err := nv.Fit(hist); err != nil {
		t.Fatal(err)
	}
	snPred, err := sn.Predict(hist, 24)
	if err != nil {
		t.Fatal(err)
	}
	nvPred, err := nv.Predict(hist, 24)
	if err != nil {
		t.Fatal(err)
	}
	if mseAgainst(snPred, s, from) >= mseAgainst(nvPred, s, from) {
		t.Error("seasonal naive should beat naive on cyclic data")
	}
}

func TestSeasonalNaiveLongHorizon(t *testing.T) {
	s := sineSeries(300, 24, 100, 10)
	m := NewSeasonalNaive(24)
	hist, _ := splitHoldout(s, 60)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	// Horizon of 60 needs wrapping more than two seasons ahead.
	f, err := m.PredictQuantiles(hist, 60, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// Bands for later seasons are at least as wide as the first season's.
	w0 := f.Values[0][1] - f.Values[0][0]
	w59 := f.Values[59][1] - f.Values[59][0]
	if w59 < w0 {
		t.Errorf("later-season band %v narrower than first %v", w59, w0)
	}
}

func TestSeasonalNaiveErrors(t *testing.T) {
	s := sineSeries(100, 24, 5, 1)
	m := NewSeasonalNaive(24)
	if _, err := m.Predict(s, 4); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
	if err := NewSeasonalNaive(0).Fit(s); err == nil {
		t.Error("zero period should fail")
	}
	if err := NewSeasonalNaive(200).Fit(s); err != ErrShortHistory {
		t.Error("short history should fail")
	}
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	short := sineSeries(10, 24, 5, 1)
	if _, err := m.Predict(short, 4); err != ErrShortHistory {
		t.Errorf("err = %v", err)
	}
	if _, err := m.Predict(s, 0); err == nil {
		t.Error("zero horizon should fail")
	}
}

// TestResidualPoolsSizedExactly holds every residual pool Fit keeps to
// its length, with and without the MaxResiduals stride, so a fleet of
// fitted baselines retains no append slack.
func TestResidualPoolsSizedExactly(t *testing.T) {
	s := sineSeries(2304, 144, 100, 10)
	for _, maxRes := range []int{0, 7, 100, 4096} {
		for _, n := range []int{200, 300, 2304} {
			train := s.Slice(0, n)
			sn := NewSeasonalNaive(144)
			sn.MaxResiduals = maxRes
			if err := sn.Fit(train); err != nil {
				t.Fatal(err)
			}
			if len(sn.residuals) != cap(sn.residuals) {
				t.Errorf("seasonal-naive max %d, n %d: %d residuals in cap %d", maxRes, n, len(sn.residuals), cap(sn.residuals))
			}
			nv := NewNaive(12)
			nv.MaxResiduals = maxRes
			if err := nv.Fit(train); err != nil {
				t.Fatal(err)
			}
			for k, pool := range nv.residuals {
				if len(pool) != cap(pool) {
					t.Errorf("naive max %d, n %d, lead %d: %d residuals in cap %d", maxRes, n, k, len(pool), cap(pool))
				}
			}
		}
	}
}
