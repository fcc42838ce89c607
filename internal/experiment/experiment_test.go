package experiment

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"
)

// tinyConfig keeps unit tests fast: short trace, small context/horizon,
// Quick training budgets.
func tinyConfig() Config {
	return Config{Seed: 7, Days: 4, Context: 24, Horizon: 12, Theta: 100, Runs: 1, Quick: true}
}

// sharedZoo caches trained models across tests in this package.
var sharedZoo *Zoo

func zoo(t *testing.T) *Zoo {
	t.Helper()
	if sharedZoo == nil {
		z, err := NewZoo(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedZoo = z
	}
	return sharedZoo
}

func TestPrepareDatasets(t *testing.T) {
	ds, err := PrepareDatasets(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []DatasetName{Alibaba, Google} {
		d, ok := ds[name]
		if !ok {
			t.Fatalf("missing dataset %s", name)
		}
		if d.TrainEnd <= 0 || d.EvalStart <= d.TrainEnd || d.EvalStart >= d.Series.Len() {
			t.Errorf("%s: bad partitions train=%d eval=%d len=%d", name, d.TrainEnd, d.EvalStart, d.Series.Len())
		}
		if d.Train().Len() != d.TrainEnd {
			t.Errorf("%s: train partition mismatch", name)
		}
	}
}

func TestZooCachesModels(t *testing.T) {
	z := zoo(t)
	m1, err := z.Quantile(ModelARIMA, Alibaba, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := z.Quantile(ModelARIMA, Alibaba, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("zoo returned different instances for the same key")
	}
	if _, err := z.Quantile("nope", Alibaba, 0); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := z.Quantile(ModelARIMA, "nope", 0); err == nil {
		t.Error("unknown dataset should fail")
	}
	if _, err := z.Point(ModelARIMA, Alibaba, 0); err == nil {
		t.Error("arima is not a point model")
	}
}

func TestTable1Structure(t *testing.T) {
	z := zoo(t)
	rows, err := Table1(z)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(QuantileModels) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanWQL <= 0 || math.IsNaN(r.MeanWQL) {
			t.Errorf("%s/%s: meanWQL = %v", r.Dataset, r.Model, r.MeanWQL)
		}
		if r.MSE < 0 || math.IsNaN(r.MSE) {
			t.Errorf("%s/%s: MSE = %v", r.Dataset, r.Model, r.MSE)
		}
		for _, tau := range table1Taus {
			if c := r.Coverage[tau]; c < 0 || c > 1 {
				t.Errorf("%s/%s: coverage[%v] = %v", r.Dataset, r.Model, tau, c)
			}
		}
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestTable2And3(t *testing.T) {
	z := zoo(t)
	rows, err := Table2(z)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("table 2 rows = %d", len(rows))
	}
	byName := map[string]time.Duration{}
	for _, r := range rows {
		if r.Duration <= 0 {
			t.Errorf("%s: duration %v", r.Method, r.Duration)
		}
		byName[r.Method] = r.Duration
	}
	// DeepAR's sampling should dominate TFT's single pass.
	if byName["DeepAR"] <= byName["TFT"] {
		t.Errorf("DeepAR %v should exceed TFT %v", byName["DeepAR"], byName["TFT"])
	}

	rows3, err := Table3(z)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows3) != 4 {
		t.Fatalf("table 3 rows = %d: %+v", len(rows3), rows3)
	}
	var buf bytes.Buffer
	if err := RenderTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable3(&buf, rows3); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5(t *testing.T) {
	rows, err := Figure5(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Figure5CheckpointsMB) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Warmup <= rows[i-1].Warmup {
			t.Error("warmup should grow with checkpoint size")
		}
	}
	if rows[len(rows)-1].Warmup > time.Minute {
		t.Errorf("warmup %v out of the seconds range", rows[len(rows)-1].Warmup)
	}
	var buf bytes.Buffer
	if err := RenderFigure5(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFigure6(t *testing.T) {
	z := zoo(t)
	points, corrMSE, corrQL, err := Figure6(z, Alibaba, ModelTFT)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != z.Config().Horizon {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Uncertainty < 0 || math.IsNaN(p.Uncertainty) {
			t.Errorf("U = %v", p.Uncertainty)
		}
	}
	if math.IsNaN(corrMSE) || math.IsNaN(corrQL) {
		t.Error("correlations NaN")
	}
	var buf bytes.Buffer
	if err := RenderFigure6(&buf, points, corrMSE, corrQL); err != nil {
		t.Fatal(err)
	}
}

func TestFigure7(t *testing.T) {
	z := zoo(t)
	bands, err := Figure7(z, Alibaba)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 3 {
		t.Fatalf("bands = %d", len(bands))
	}
	for _, b := range bands {
		for _, mass := range Figure7Intervals {
			lo, hi := b.Lo[mass], b.Hi[mass]
			if len(lo) != z.Config().Horizon || len(hi) != len(lo) {
				t.Fatalf("%s: band lengths wrong", b.Model)
			}
			for t2 := range lo {
				if lo[t2] > hi[t2] {
					t.Errorf("%s: interval inverted at %d", b.Model, t2)
				}
			}
		}
		// Wider mass must give wider intervals.
		w30 := b.Hi[0.3][0] - b.Lo[0.3][0]
		w80 := b.Hi[0.8][0] - b.Lo[0.8][0]
		if w80 < w30 {
			t.Errorf("%s: 80%% interval narrower than 30%%", b.Model)
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure7(&buf, bands); err != nil {
		t.Fatal(err)
	}
}

func TestFigure8(t *testing.T) {
	z := zoo(t)
	rows, err := Figure8(z, Alibaba)
	if err != nil {
		t.Fatal(err)
	}
	// Horizons beyond the config's 12 are skipped: {1, 6, 12} remain.
	wantPerModel := 3
	if len(rows) != len(QuantileModels)*wantPerModel {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanWQL <= 0 || math.IsNaN(r.MeanWQL) {
			t.Errorf("%s h=%d: %v", r.Model, r.Horizon, r.MeanWQL)
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure8(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFigure9(t *testing.T) {
	z := zoo(t)
	rows, err := Figure9(z, Alibaba)
	if err != nil {
		t.Fatal(err)
	}
	// 2 reactive + 2 point + 2 padded + 2 models x 4 taus = 14.
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The padded rows are pinned: how the padding learns from realized
	// load may change, what it provisions may not.
	padded := map[string]string{
		"qb5000-padding":    "0.2222222222222222/0.6203703703703703",
		"tft-point-padding": "0.12962962962962962/0.7870370370370371",
	}
	for _, r := range rows {
		if r.UnderRate < 0 || r.UnderRate > 1 || r.OverRate < 0 || r.OverRate > 1 {
			t.Errorf("%s: rates %v/%v", r.Strategy, r.UnderRate, r.OverRate)
		}
		if want, ok := padded[r.Strategy]; ok {
			if got := fmt.Sprintf("%v/%v", r.UnderRate, r.OverRate); got != want {
				t.Errorf("%s: under/over rates %s, want %s", r.Strategy, got, want)
			}
			delete(padded, r.Strategy)
		}
	}
	if len(padded) > 0 {
		t.Errorf("no rows for %v", padded)
	}
	var buf bytes.Buffer
	if err := RenderFigure9(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFigure10(t *testing.T) {
	z := zoo(t)
	rows, err := Figure10(z, Alibaba, ModelTFT)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Figure10Taus) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher tau should not increase under-provisioning (monotone trend,
	// allowing exact ties).
	for i := 1; i < len(rows); i++ {
		if rows[i].UnderRate > rows[i-1].UnderRate+0.05 {
			t.Errorf("under rate rose from %v to %v at tau %v",
				rows[i-1].UnderRate, rows[i].UnderRate, rows[i].Tau)
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure10(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFigure11(t *testing.T) {
	z := zoo(t)
	cells, err := Figure11(z, Alibaba, ModelTFT)
	if err != nil {
		t.Fatal(err)
	}
	// 5 levels -> 15 combinations with tau1 <= tau2.
	if len(cells) != 15 {
		t.Fatalf("cells = %d", len(cells))
	}
	diag := 0
	for _, c := range cells {
		if c.Tau1 == c.Tau2 {
			diag++
		}
	}
	if diag != len(Figure11Taus) {
		t.Errorf("diagonal cells = %d", diag)
	}
	var buf bytes.Buffer
	if err := RenderFigure11(&buf, cells); err != nil {
		t.Fatal(err)
	}
}

func TestFigure12(t *testing.T) {
	z := zoo(t)
	rows, err := Figure12(z, Google, ModelTFT, 0.7, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Figure12RhoQuantiles) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Rho grows with its calibration quantile.
	for i := 1; i < len(rows); i++ {
		if rows[i].Rho < rows[i-1].Rho {
			t.Errorf("rho not monotone: %v then %v", rows[i-1].Rho, rows[i].Rho)
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure12(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateRhoMonotone(t *testing.T) {
	z := zoo(t)
	lo, err := CalibrateRho(z, Alibaba, ModelTFT, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := CalibrateRho(z, Alibaba, ModelTFT, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Errorf("rho(0.1)=%v > rho(0.9)=%v", lo, hi)
	}
}

func TestUnionLevels(t *testing.T) {
	got := unionLevels([]float64{0.1, 0.5}, []float64{0.5, 0.9, 0.2})
	want := []float64{0.1, 0.2, 0.5, 0.9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("got %v", got)
		}
	}
}
