package forecast

import (
	"bytes"
	"slices"
	"testing"

	"robustscale/internal/timeseries"
)

// warmOrigins mixes strides of 1 and 3 so the suite covers both the
// single-step advance the control loop takes and multi-step jumps that
// cross anchor boundaries.
var warmOrigins = []int{420, 421, 422, 425, 428, 431, 432, 444}

// requireFanEqual asserts bit-identical fans: warm paths must reproduce
// their cold counterparts exactly, not approximately.
func requireFanEqual(t *testing.T, label string, origin int, cold, warm *QuantileForecast) {
	t.Helper()
	if cold.Horizon() != warm.Horizon() || len(cold.Levels) != len(warm.Levels) {
		t.Fatalf("%s origin %d: shape mismatch: cold %dx%d, warm %dx%d",
			label, origin, cold.Horizon(), len(cold.Levels), warm.Horizon(), len(warm.Levels))
	}
	for i := range cold.Mean {
		if cold.Mean[i] != warm.Mean[i] {
			t.Fatalf("%s origin %d step %d: mean cold %v != warm %v",
				label, origin, i, cold.Mean[i], warm.Mean[i])
		}
		for j := range cold.Values[i] {
			if cold.Values[i][j] != warm.Values[i][j] {
				t.Fatalf("%s origin %d step %d level %v: cold %v != warm %v",
					label, origin, i, cold.Levels[j], cold.Values[i][j], warm.Values[i][j])
			}
		}
	}
}

// cloneSeries copies a history into a fresh backing array, simulating the
// discontinuities warm paths must survive (telemetry corruption clones,
// guard sanitization): the broken pointer identity must trigger a cold
// rebuild whose output is still bit-identical.
func cloneSeries(s *timeseries.Series) *timeseries.Series {
	return timeseries.New(s.Name, s.Start, s.Step, append([]float64(nil), s.Values...))
}

// warmCase fits two identical instances of a forecaster — one queried only
// cold, one only warm — and slides the planning origin forward over a
// shared backing array, the exact access pattern of the control loop.
type warmCase struct {
	name string
	make func() QuantileForecaster
}

func warmCases() []warmCase {
	return []warmCase{
		{"naive", func() QuantileForecaster { return NewNaive(12) }},
		{"seasonal-naive", func() QuantileForecaster { return NewSeasonalNaive(24) }},
		{"arima", func() QuantileForecaster { return newARIMA(2, 1, 1) }},
		{"deepar-workers1", func() QuantileForecaster {
			return NewDeepAR(DeepARConfig{
				Context: 24, Hidden: 8, Epochs: 2, LR: 5e-3, Seed: 3,
				MaxWindows: 48, Samples: 20, TrainHorizon: 12, Workers: 1,
			})
		}},
		{"deepar-workers4", func() QuantileForecaster {
			return NewDeepAR(DeepARConfig{
				Context: 24, Hidden: 8, Epochs: 2, LR: 5e-3, Seed: 3,
				MaxWindows: 48, Samples: 20, TrainHorizon: 12, Workers: 4,
			})
		}},
		{"tft", func() QuantileForecaster {
			return NewTFT(TFTConfig{
				Context: 24, Hidden: 8, Epochs: 1, LR: 5e-3, Seed: 3,
				MaxWindows: 24, TrainHorizon: 12,
			})
		}},
		{"conformal-seasonal", func() QuantileForecaster {
			c := NewConformal(NewSeasonalNaive(24))
			c.Horizon = 12
			return c
		}},
	}
}

// TestWarmMatchesColdAcrossOrigins is the core determinism contract of
// the planning fast path: for every incremental forecaster, warm
// prediction over a sliding origin — including origin strides that cross
// conditioning anchors, a history clone mid-run and a history shrunk
// below the last origin — is bit-identical to cold
// prediction from a separately fitted twin.
func TestWarmMatchesColdAcrossOrigins(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 1, 42)
	levels := []float64{0.1, 0.5, 0.9}
	const h = 6
	for _, tc := range warmCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			coldM, warmM := tc.make(), tc.make()
			train := s.Slice(0, 400)
			if err := coldM.Fit(train); err != nil {
				t.Fatal(err)
			}
			if err := warmM.Fit(train); err != nil {
				t.Fatal(err)
			}
			inc, ok := warmM.(IncrementalForecaster)
			if !ok {
				t.Fatalf("%s does not implement IncrementalForecaster", tc.name)
			}
			for _, origin := range warmOrigins {
				hist := s.Slice(0, origin)
				cold, err := coldM.PredictQuantiles(hist, h, levels)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := inc.PredictQuantilesWarm(hist, h, levels)
				if err != nil {
					t.Fatal(err)
				}
				requireFanEqual(t, tc.name, origin, cold, warm)
			}

			// A cloned history breaks backing-array identity: the warm
			// path must fall back to a cold rebuild, bit-identically.
			cloned := cloneSeries(s.Slice(0, 450))
			cold, err := coldM.PredictQuantiles(cloned, h, levels)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := inc.PredictQuantilesWarm(cloned, h, levels)
			if err != nil {
				t.Fatal(err)
			}
			requireFanEqual(t, tc.name+"/cloned", 450, cold, warm)

			// Returning to the shared array after the clone stays exact.
			for _, origin := range []int{451, 454} {
				hist := s.Slice(0, origin)
				cold, err := coldM.PredictQuantiles(hist, h, levels)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := inc.PredictQuantilesWarm(hist, h, levels)
				if err != nil {
					t.Fatal(err)
				}
				requireFanEqual(t, tc.name+"/resumed", origin, cold, warm)
			}

			// A shorter history over the same array, after a warm round
			// at a longer one, must not resume from the longer state.
			for _, origin := range []int{460, 437} {
				hist := s.Slice(0, origin)
				cold, err := coldM.PredictQuantiles(hist, h, levels)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := inc.PredictQuantilesWarm(hist, h, levels)
				if err != nil {
					t.Fatal(err)
				}
				requireFanEqual(t, tc.name+"/shrunk", origin, cold, warm)
			}
		})
	}
}

// TestWarmMatchesColdAcrossWorkerCounts pins that Monte-Carlo worker
// fan-out does not leak into results: a warm single-worker DeepAR, a warm
// four-worker DeepAR, and a cold reference all agree bit-for-bit.
func TestWarmMatchesColdAcrossWorkerCounts(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 1, 42)
	levels := []float64{0.1, 0.5, 0.9}
	mk := func(workers int) *DeepAR {
		return NewDeepAR(DeepARConfig{
			Context: 24, Hidden: 8, Epochs: 2, LR: 5e-3, Seed: 3,
			MaxWindows: 48, Samples: 20, TrainHorizon: 12, Workers: workers,
		})
	}
	cold, w1, w4 := mk(1), mk(1), mk(4)
	train := s.Slice(0, 400)
	for _, m := range []*DeepAR{cold, w1, w4} {
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
	}
	for _, origin := range warmOrigins {
		hist := s.Slice(0, origin)
		ref, err := cold.PredictQuantiles(hist, 4, levels)
		if err != nil {
			t.Fatal(err)
		}
		f1, err := w1.PredictQuantilesWarm(hist, 4, levels)
		if err != nil {
			t.Fatal(err)
		}
		f4, err := w4.PredictQuantilesWarm(hist, 4, levels)
		if err != nil {
			t.Fatal(err)
		}
		requireFanEqual(t, "workers1", origin, ref, f1)
		requireFanEqual(t, "workers4", origin, ref, f4)
	}
}

// TestWarmSurvivesSaveLoadRestart models the daemon's warm restart: a
// forecaster that has been predicting warm is checkpointed, restored into
// a fresh process (Load must invalidate the recurrent cache), and keeps
// producing bit-identical fans as the origin advances.
func TestWarmSurvivesSaveLoadRestart(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 1, 42)
	levels := []float64{0.1, 0.5, 0.9}
	mk := func() *DeepAR {
		return NewDeepAR(DeepARConfig{
			Context: 24, Hidden: 8, Epochs: 2, LR: 5e-3, Seed: 3,
			MaxWindows: 48, Samples: 20, TrainHorizon: 12,
		})
	}
	cold, warm := mk(), mk()
	train := s.Slice(0, 400)
	if err := cold.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := warm.Fit(train); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.PredictQuantilesWarm(s.Slice(0, 430), 4, levels); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for _, origin := range []int{431, 432, 435} {
		hist := s.Slice(0, origin)
		ref, err := cold.PredictQuantiles(hist, 4, levels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.PredictQuantilesWarm(hist, 4, levels)
		if err != nil {
			t.Fatal(err)
		}
		requireFanEqual(t, "restored", origin, ref, got)
	}
}

// TestQB5000WarmMatchesCold covers the point-forecast warm contract:
// PredictWarm advances only the recurrent component's conditioning state,
// and must agree with Predict exactly across sliding origins, a history
// clone, and a reset.
func TestQB5000WarmMatchesCold(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 1, 42)
	mk := func() *QB5000 {
		return NewQB5000(QB5000Config{
			Context: 24, Hidden: 8, Epochs: 2, LR: 1e-3, Seed: 1,
			MaxWindows: 48, Bandwidth: 1, TrainHorizon: 12,
		})
	}
	cold, warm := mk(), mk()
	train := s.Slice(0, 400)
	if err := cold.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := warm.Fit(train); err != nil {
		t.Fatal(err)
	}
	check := func(label string, hist *timeseries.Series, origin int) {
		t.Helper()
		ref, err := cold.Predict(hist, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.PredictWarm(hist, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("%s origin %d step %d: cold %v != warm %v", label, origin, i, ref[i], got[i])
			}
		}
	}
	for _, origin := range warmOrigins {
		check("qb5000", s.Slice(0, origin), origin)
	}
	check("qb5000/cloned", cloneSeries(s.Slice(0, 450)), 450)
	check("qb5000/reset", s.Slice(0, 454), 454)
}

// TestDeepARWarmRoundZeroAlloc pins the allocation shape of the warm
// DeepAR round: the horizon-1 steady state allocates nothing, and a
// multi-step rollout allocates per call (the worker fan-out), never per
// path or per path-step — so the count is the same at 50 and 200 paths.
func TestDeepARWarmRoundZeroAlloc(t *testing.T) {
	s := noisySine(600, 24, 50, 10, 1, 42)
	levels := []float64{0.1, 0.5, 0.9}
	warmAllocs := func(samples, h int) float64 {
		m := NewDeepAR(DeepARConfig{
			Context: 24, Hidden: 8, Epochs: 1, LR: 5e-3, Seed: 3,
			MaxWindows: 24, Samples: samples, TrainHorizon: 12, Workers: 1,
		})
		if err := m.Fit(s.Slice(0, 400)); err != nil {
			t.Fatal(err)
		}
		hists := make([]*timeseries.Series, 32) // Slice allocates; keep it out of the round
		for i := range hists {
			hists[i] = s.Slice(0, 420+i)
		}
		next := 0
		round := func() {
			if _, err := m.PredictQuantilesWarm(hists[next], h, levels); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 4; i++ {
			round() // grow the arenas and pooled buffers
		}
		return testing.AllocsPerRun(20, round)
	}
	if a := warmAllocs(50, 1); a != 0 {
		t.Errorf("warm h=1 round allocates %v times, want 0", a)
	}
	a50, a200 := warmAllocs(50, 12), warmAllocs(200, 12)
	if a50 != a200 {
		t.Errorf("warm h=12 round allocates %v times at 50 paths, %v at 200: allocations scale with paths", a50, a200)
	}
}

// TestTFTWarmRoundZeroAlloc pins the warm TFT round to zero heap
// allocations once its pass and fan have grown: the forward record,
// attention's matrices and the fan are all reused, at horizon 1 and at
// the paper's horizon 12.
func TestTFTWarmRoundZeroAlloc(t *testing.T) {
	s := noisySine(300, 24, 50, 10, 1, 42)
	m := NewTFT(TFTConfig{
		Context: 24, Hidden: 8, Epochs: 1, LR: 5e-3, Seed: 3,
		MaxWindows: 12, TrainHorizon: 12,
	})
	if err := m.Fit(s.Slice(0, 240)); err != nil {
		t.Fatal(err)
	}
	hists := make([]*timeseries.Series, 32) // Slice allocates; keep it out of the round
	for i := range hists {
		hists[i] = s.Slice(0, 250+i)
	}
	levels := []float64{0.1, 0.5, 0.9}
	for _, h := range []int{1, 12} {
		next := 0
		round := func() {
			if _, err := m.PredictQuantilesWarm(hists[next%len(hists)], h, levels); err != nil {
				t.Fatal(err)
			}
			next++
		}
		round() // grow the pass and the fan
		if a := testing.AllocsPerRun(20, round); a != 0 {
			t.Errorf("warm TFT round at h=%d allocates %v times, want 0", h, a)
		}
	}
}

// TestTFTPredictAllocs pins what one cold TFT predict allocates at a
// fixed shape once its pass has grown: the returned fan's header, row
// spine, one block for its rows and mean, levels. The forward record,
// the attention block's matrices and the trained grid all come from the
// pooled pass.
func TestTFTPredictAllocs(t *testing.T) {
	s := noisySine(300, 24, 50, 10, 1, 42)
	m := NewTFT(TFTConfig{
		Context: 24, Hidden: 8, Epochs: 1, LR: 5e-3, Seed: 3,
		MaxWindows: 12, TrainHorizon: 12,
	})
	if err := m.Fit(s.Slice(0, 240)); err != nil {
		t.Fatal(err)
	}
	hist := s.Slice(0, 260)
	levels := []float64{0.1, 0.5, 0.9}
	predict := func() {
		if _, err := m.PredictQuantiles(hist, 12, levels); err != nil {
			t.Fatal(err)
		}
	}
	predict() // grow the arena
	const want = 4
	if got := testing.AllocsPerRun(20, predict); got != want {
		t.Errorf("TFT predict allocates %v times, want %v", got, want)
	}
}

// TestDeepARPredictAllocs holds what one cold DeepAR predict allocates to
// the call-local cache it runs predict on (its arenas, path RNGs, sample
// matrix and levels) and the fan it returns, never a buffer per path or
// per path-step: the count at 40 paths must equal the count at 20, at
// the same horizon. How many arena slabs the cache grows moves with the
// floats each step draws, so the count is bounded, not pinned: 75 is
// what it read while every LSTM step drew four 4H vectors.
func TestDeepARPredictAllocs(t *testing.T) {
	s := noisySine(300, 24, 50, 10, 1, 42)
	m := NewDeepAR(DeepARConfig{
		Context: 24, Hidden: 8, Epochs: 1, LR: 5e-3, Seed: 3,
		MaxWindows: 12, Samples: 20, TrainHorizon: 12, Workers: 1,
	})
	if err := m.Fit(s.Slice(0, 240)); err != nil {
		t.Fatal(err)
	}
	hist := s.Slice(0, 242)
	levels := []float64{0.1, 0.5, 0.9}
	allocs := func(samples int) float64 {
		m.cfg.Samples = samples
		return testing.AllocsPerRun(20, func() {
			if _, err := m.PredictQuantiles(hist, 12, levels); err != nil {
				t.Fatal(err)
			}
		})
	}
	const bound = 75
	at20, at40 := allocs(20), allocs(40)
	if at40 != at20 {
		t.Errorf("DeepAR predict allocates %v times at 40 paths, %v at 20: a buffer per path", at40, at20)
	}
	if at20 > bound {
		t.Errorf("DeepAR predict allocates %v times, want at most %v", at20, bound)
	}
	t.Logf("%v allocations per cold predict", at20)
}

// FuzzWarmMatchesCold drives one instance of each offset-based forecaster
// through a fuzzer-chosen run of calls, three bytes each: the origin's
// move (back as well as forward, sometimes onto a cloned history), the
// horizon and the level set, all free to change between warm calls. Every
// warm fan must equal the cold fan of the same call bit for bit, and both
// must refuse the same requests.
func FuzzWarmMatchesCold(f *testing.F) {
	f.Add([]byte{2, 5, 0x12, 3, 5, 0x12, 4, 0x8b, 0x31})
	f.Add([]byte{0x82, 0, 0x01, 1, 11, 0xff, 0, 11, 0xfe, 7, 3, 0})
	s := noisySine(600, 24, 50, 10, 1, 42)
	grid := []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	f.Fuzz(func(t *testing.T, ops []byte) {
		conformal := NewConformal(NewSeasonalNaive(24))
		conformal.Horizon = 12
		for _, m := range []QuantileForecaster{NewNaive(12), NewSeasonalNaive(24), conformal} {
			if err := m.Fit(s.Slice(0, 400)); err != nil {
				t.Fatal(err)
			}
			inc := m.(IncrementalForecaster)
			origin := 420
			for i := 0; i+2 < len(ops); i += 3 {
				origin = min(max(origin+int(ops[i]&0x0f)-4, 300), s.Len())
				hist := s.Slice(0, origin)
				if ops[i]&0x80 != 0 {
					hist = cloneSeries(hist)
				}
				h := 1 + int(ops[i+1]&0x7f)%12
				var levels []float64
				for j, l := range grid {
					if ops[i+2]&(1<<j) != 0 {
						levels = append(levels, l)
					}
				}
				if ops[i+1]&0x80 != 0 {
					slices.Reverse(levels)
				}
				cold, errCold := m.PredictQuantiles(hist, h, levels)
				warm, errWarm := inc.PredictQuantilesWarm(hist, h, levels)
				if (errCold == nil) != (errWarm == nil) {
					t.Fatalf("%s call %d: cold error %v, warm error %v", m.Name(), i/3, errCold, errWarm)
				}
				if errCold == nil {
					requireFanEqual(t, m.Name(), origin, cold, warm)
				}
			}
		}
	})
}
