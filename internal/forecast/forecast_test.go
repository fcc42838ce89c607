package forecast

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"robustscale/internal/metrics"
	"robustscale/internal/timeseries"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func TestQuantileForecastAt(t *testing.T) {
	f := &QuantileForecast{
		Levels: []float64{0.1, 0.5, 0.9},
		Values: [][]float64{{10, 20, 30}},
	}
	if got := f.At(0, 0.5); got != 20 {
		t.Errorf("At(0.5) = %v", got)
	}
	if got := f.At(0, 0.3); !almost(got, 15, 1e-9) {
		t.Errorf("At(0.3) = %v, want interpolated 15", got)
	}
	if got := f.At(0, 0.05); got != 10 {
		t.Errorf("At(0.05) = %v, want clamped 10", got)
	}
	if got := f.At(0, 0.99); got != 30 {
		t.Errorf("At(0.99) = %v, want clamped 30", got)
	}
}

func TestQuantileForecastEnforce(t *testing.T) {
	f := &QuantileForecast{
		Levels: []float64{0.1, 0.5, 0.9},
		Values: [][]float64{{20, 10, 30}},
	}
	f.Enforce()
	if f.Values[0][0] != 10 || f.Values[0][1] != 20 || f.Values[0][2] != 30 {
		t.Errorf("Enforce = %v", f.Values[0])
	}

	// Enforce leaves a sorted row as it is; that must be the bits
	// sort.Float64s gives too, also where the order is a tie between
	// values of different bits (−0 and +0, two NaN payloads) and on both
	// sides of the sort's 12-element insertion cut-off.
	neg0, nan2 := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000abc)
	rows := [][]float64{
		{-1, neg0, 0, neg0, 0, 2},
		{math.NaN(), 1, 2, 3},
		{0, neg0, -1, math.NaN(), 3},
		{math.NaN(), nan2, -5, -4, -3, -2, -1, neg0, 0, neg0, 0, 1, 2, 3, 4},
		{nan2, math.NaN(), -3, neg0, 0, 0, neg0, 1, 1, 2, 3, 5, 8, 13, 21, 34},
		{3, 0, neg0, 2, math.NaN(), -1, 0, 1, neg0, 7, 6, 5, 4, 3, 2, 1},
	}
	alphabet := []float64{math.NaN(), nan2, neg0, 0, -1, 1, 2}
	rng := rand.New(rand.NewSource(1))
	for len(rows) < 2000 {
		row := make([]float64, 1+rng.Intn(30))
		for i := range row {
			row[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if len(rows)%2 == 0 {
			// Sort, then re-draw the sign of every zero: still sorted, with
			// ties the sort could have ordered either way.
			sort.Float64s(row)
			for i, v := range row {
				if v == 0 && rng.Intn(2) == 0 {
					row[i] = -v
				}
			}
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		want := slices.Clone(row)
		sort.Float64s(want)
		got := &QuantileForecast{Values: [][]float64{slices.Clone(row)}}
		got.Enforce()
		for i := range want {
			if math.Float64bits(got.Values[0][i]) != math.Float64bits(want[i]) {
				t.Fatalf("Enforce(%v) = %v, sort.Float64s gives %v", row, got.Values[0], want)
			}
		}
	}
}

func TestQuantileForecastValidate(t *testing.T) {
	good := &QuantileForecast{
		Levels: []float64{0.1, 0.9},
		Values: [][]float64{{1, 2}},
		Mean:   []float64{1.5},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	badLevels := &QuantileForecast{Levels: []float64{0.9, 0.1}, Values: [][]float64{{1, 2}}}
	if err := badLevels.Validate(); err == nil {
		t.Error("unsorted levels should fail")
	}
	ragged := &QuantileForecast{Levels: []float64{0.1, 0.9}, Values: [][]float64{{1}}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged row should fail")
	}
	nan := &QuantileForecast{Levels: []float64{0.1, 0.9}, Values: [][]float64{{1, math.NaN()}}}
	if err := nan.Validate(); err == nil {
		t.Error("NaN should fail")
	}
	badMean := &QuantileForecast{Levels: []float64{0.5}, Values: [][]float64{{1}}, Mean: []float64{1, 2}}
	if err := badMean.Validate(); err == nil {
		t.Error("mean length mismatch should fail")
	}
}

func TestPinballLoss(t *testing.T) {
	// Overestimate (y < yhat): loss = (1 - tau) * (yhat - y).
	if got := metrics.Pinball(0.9, 10, 14); !almost(got, 0.1*4, 1e-12) {
		t.Errorf("overestimate loss = %v", got)
	}
	// Underestimate (y > yhat): loss = tau * (y - yhat).
	if got := metrics.Pinball(0.9, 14, 10); !almost(got, 0.9*4, 1e-12) {
		t.Errorf("underestimate loss = %v", got)
	}
	if got := metrics.Pinball(0.5, 7, 7); got != 0 {
		t.Errorf("exact loss = %v", got)
	}
}

func TestPinballLossNonNegativeProperty(t *testing.T) {
	f := func(y, yhat float64, tauSeed uint8) bool {
		if math.IsNaN(y) || math.IsInf(y, 0) || math.IsNaN(yhat) || math.IsInf(yhat, 0) {
			return true
		}
		tau := 0.05 + 0.9*float64(tauSeed)/255
		return metrics.Pinball(tau, y, yhat) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPinballGradMatchesLoss(t *testing.T) {
	const eps = 1e-6
	for _, tau := range []float64{0.1, 0.5, 0.9} {
		for _, pair := range [][2]float64{{3, 5}, {5, 3}} {
			y, yhat := pair[0], pair[1]
			numeric := (metrics.Pinball(tau, y, yhat+eps) - metrics.Pinball(tau, y, yhat-eps)) / (2 * eps)
			if got := PinballGrad(tau, y, yhat); !almost(got, numeric, 1e-6) {
				t.Errorf("tau=%v y=%v yhat=%v: grad %v vs numeric %v", tau, y, yhat, got, numeric)
			}
		}
	}
}

func TestTimeFeaturesPeriodicity(t *testing.T) {
	ts := time.Date(2024, 3, 4, 9, 30, 0, 0, time.UTC)
	f1 := timeFeatures(ts)
	f2 := timeFeatures(ts.Add(24 * time.Hour))
	// Daily features repeat after 24h.
	if !almost(f1[0], f2[0], 1e-9) || !almost(f1[1], f2[1], 1e-9) {
		t.Errorf("daily features not periodic: %v vs %v", f1[:2], f2[:2])
	}
	f3 := timeFeatures(ts.Add(7 * 24 * time.Hour))
	if !almost(f1[2], f3[2], 1e-9) || !almost(f1[3], f3[3], 1e-9) {
		t.Errorf("weekly features not periodic: %v vs %v", f1[2:], f3[2:])
	}
	if len(f1) != timeFeatureDim {
		t.Errorf("feature dim = %d", len(f1))
	}
}

func TestNormalizeLevels(t *testing.T) {
	got, err := normalizeLevels([]float64{0.9, 0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.5, 0.9}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("levels = %v", got)
		}
	}
	if _, err := normalizeLevels(nil); err == nil {
		t.Error("empty levels should fail")
	}
	if _, err := normalizeLevels([]float64{0}); err == nil {
		t.Error("level 0 should fail")
	}
	if _, err := normalizeLevels([]float64{1}); err == nil {
		t.Error("level 1 should fail")
	}
}

func TestTrainingWindowsBounded(t *testing.T) {
	vals := make([]float64, 1000)
	s := timeseries.New("x", t0, timeseries.DefaultStep, vals)
	ws, err := trainingWindows(s, 10, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) > 50 {
		t.Errorf("got %d windows, want <= 50", len(ws))
	}
	if len(ws) < 25 {
		t.Errorf("got %d windows, suspiciously few", len(ws))
	}
	if _, err := trainingWindows(s.Slice(0, 12), 10, 5, 50); err != ErrShortHistory {
		t.Errorf("short series err = %v", err)
	}
}

func TestContextTail(t *testing.T) {
	s := timeseries.New("x", t0, timeseries.DefaultStep, []float64{1, 2, 3, 4})
	tail, err := contextTail(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tail[0] != 3 || tail[1] != 4 {
		t.Errorf("tail = %v", tail)
	}
	if _, err := contextTail(s, 5); err != ErrShortHistory {
		t.Errorf("err = %v", err)
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// sineSeries builds a noiseless seasonal series for model tests: cheap to
// learn and with a known continuation.
func sineSeries(n, period int, level, amp float64) *timeseries.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = level + amp*math.Sin(2*math.Pi*float64(i)/float64(period))
	}
	return timeseries.New("sine", t0, timeseries.DefaultStep, vals)
}

func mseAgainst(pred []float64, s *timeseries.Series, from int) float64 {
	sum := 0.0
	for i, p := range pred {
		d := p - s.At(from+i)
		sum += d * d
	}
	return sum / float64(len(pred))
}
