package forecast

import (
	"math"
	"testing"
)

func TestBacktestStructure(t *testing.T) {
	s := noisySine(700, 48, 100, 20, 1, 51)
	m := NewSeasonalARIMA(4, 0, 1, 48)
	if err := m.Fit(s.Slice(0, 500)); err != nil {
		t.Fatal(err)
	}
	res, err := Backtest(m, s, BacktestConfig{Start: 500, Horizon: 48})
	if err != nil {
		t.Fatal(err)
	}
	// Origins: 500, 548, 596, 644 (644+48 = 692 <= 700).
	if len(res.Origins) != 4 {
		t.Fatalf("origins = %d", len(res.Origins))
	}
	if res.Model != m.Name() {
		t.Errorf("model = %q", res.Model)
	}
	if res.MeanWQL <= 0 || math.IsNaN(res.MeanWQL) {
		t.Errorf("meanWQL = %v", res.MeanWQL)
	}
	if res.MSE <= 0 {
		t.Errorf("MSE = %v", res.MSE)
	}
	for _, tau := range DefaultLevels {
		if _, ok := res.WQL[tau]; !ok {
			t.Errorf("missing wQL[%v]", tau)
		}
		if c := res.Coverage[tau]; c < 0 || c > 1 {
			t.Errorf("coverage[%v] = %v", tau, c)
		}
	}
	// Coverage should increase with the level for a calibrated-ish model.
	if res.Coverage[0.9] <= res.Coverage[0.1] {
		t.Errorf("coverage not increasing: %v vs %v", res.Coverage[0.1], res.Coverage[0.9])
	}
}

func TestBacktestSeasonalNaiveBeatsNaive(t *testing.T) {
	s := noisySine(800, 48, 100, 30, 1, 53)
	sn := NewSeasonalNaive(48)
	nv := NewNaive(48)
	if err := sn.Fit(s.Slice(0, 600)); err != nil {
		t.Fatal(err)
	}
	if err := nv.Fit(s.Slice(0, 600)); err != nil {
		t.Fatal(err)
	}
	cfg := BacktestConfig{Start: 600, Horizon: 48}
	rs, err := Backtest(sn, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Backtest(nv, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.MeanWQL >= rn.MeanWQL {
		t.Errorf("seasonal %v should beat naive %v", rs.MeanWQL, rn.MeanWQL)
	}
}

func TestBacktestValidation(t *testing.T) {
	s := sineSeries(100, 24, 100, 10)
	m := NewNaive(12)
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Backtest(m, s, BacktestConfig{Start: 50, Horizon: 0}); err == nil {
		t.Error("zero horizon should fail")
	}
	if _, err := Backtest(m, s, BacktestConfig{Start: 0, Horizon: 12}); err == nil {
		t.Error("zero start should fail")
	}
	if _, err := Backtest(m, s, BacktestConfig{Start: 95, Horizon: 12}); err == nil {
		t.Error("start too late should fail")
	}
}
