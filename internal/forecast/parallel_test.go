package forecast

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"robustscale/internal/nn"
	"robustscale/internal/timeseries"
)

// The parallel pipeline's whole contract is that worker count is a pure
// performance knob: quantile outputs and fitted weights must be
// bit-identical whether the work runs on one goroutine or many. These
// tests pin that contract with exact float comparisons.

// quantilesEqual compares two forecasts bit-for-bit.
func quantilesEqual(t *testing.T, name string, a, b *QuantileForecast) {
	t.Helper()
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: %d vs %d steps", name, len(a.Values), len(b.Values))
	}
	for step := range a.Values {
		if a.Mean[step] != b.Mean[step] {
			t.Fatalf("%s: mean[%d] %v != %v", name, step, a.Mean[step], b.Mean[step])
		}
		for i := range a.Values[step] {
			if a.Values[step][i] != b.Values[step][i] {
				t.Fatalf("%s: values[%d][%d] %v != %v",
					name, step, i, a.Values[step][i], b.Values[step][i])
			}
		}
	}
}

// parallelDeepAR keeps the determinism tests fast.
func parallelDeepAR(workers int) *DeepAR {
	return NewDeepAR(DeepARConfig{
		Context: 16, Hidden: 8, Epochs: 2, Seed: 5, MaxWindows: 24,
		Samples: 24, TrainHorizon: 8, Workers: workers,
	})
}

// TestDeepARSamplingDeterministicAcrossWorkers fits identical models and
// checks that Monte-Carlo sampling gives bitwise equal quantiles for
// worker counts 1, 3 and 8 — and under GOMAXPROCS=1, which is the
// satellite regression from the issue: serial execution must reproduce
// the parallel pool exactly.
func TestDeepARSamplingDeterministicAcrossWorkers(t *testing.T) {
	train := sineSeries(220, 24, 50, 20)
	var ref *QuantileForecast
	for _, workers := range []int{1, 3, 8} {
		d := parallelDeepAR(workers)
		if err := d.Fit(train); err != nil {
			t.Fatal(err)
		}
		f, err := d.PredictQuantiles(train, 6, DefaultLevels)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = f
			continue
		}
		quantilesEqual(t, "deepar workers", ref, f)
	}

	t.Run("gomaxprocs1", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		d := parallelDeepAR(8)
		if err := d.Fit(train); err != nil {
			t.Fatal(err)
		}
		f, err := d.PredictQuantiles(train, 6, DefaultLevels)
		if err != nil {
			t.Fatal(err)
		}
		quantilesEqual(t, "deepar gomaxprocs=1", ref, f)
	})
}

// TestDeepARBlocksInvisible: paths roll forward in lockstep blocks of
// sampleBlock, one block per task, so a path's block, the size of the
// last block and the worker count must not reach a sample. Samples counts
// below, at and off a multiple of the block, cold and warm, for Workers
// 1, 2 and 4, all give one fan.
func TestDeepARBlocksInvisible(t *testing.T) {
	train := sineSeries(220, 24, 50, 20)
	for _, samples := range []int{1, sampleBlock - 1, sampleBlock, 2*sampleBlock + 3} {
		var ref *QuantileForecast
		for _, workers := range []int{1, 2, 4} {
			d := NewDeepAR(DeepARConfig{
				Context: 16, Hidden: 8, Epochs: 1, Seed: 5, MaxWindows: 24,
				Samples: samples, TrainHorizon: 8, Workers: workers,
			})
			if err := d.Fit(train); err != nil {
				t.Fatal(err)
			}
			cold, err := d.PredictQuantiles(train, 6, DefaultLevels)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = cold
			}
			quantilesEqual(t, fmt.Sprintf("%d samples, %d workers, cold", samples, workers), ref, cold)
			warm, err := d.PredictQuantilesWarm(train, 6, DefaultLevels)
			if err != nil {
				t.Fatal(err)
			}
			quantilesEqual(t, fmt.Sprintf("%d samples, %d workers, warm", samples, workers), ref, warm)
		}
	}
}

// warmup runs the conditioning window of history through the network,
// from the zero state at warmAnchor(n, Context), and returns the final
// state plus the emission for the first forecast step: the independent
// reference for predict's conditioning.
func (d *DeepAR) warmup(history *timeseries.Series) (nn.LSTMState, emission, error) {
	if history.Len() < d.cfg.Context {
		return nn.LSTMState{}, emission{}, ErrShortHistory
	}
	anchor := warmAnchor(history.Len(), d.cfg.Context)
	state := d.cell.NewLSTMState()
	for p := anchor; p <= history.Len(); p++ {
		x := make([]float64, deepARInputDim)
		d.conditionInput(x, history, anchor, p)
		state, _ = d.cell.StepScratch(nil, x, state)
	}
	out, _ := d.head.Forward(state.H)
	return state, d.emissionFrom(out), nil
}

// TestDeepARLockstepMatchesPerPathRollout holds the lockstep rollout to
// the per-path loop it replaced: each path alone, from its own seeded
// RNG, stepped by StepScratch and the head's ForwardScratch. The sample
// matrices must agree bit for bit, over a last block that is not full.
func TestDeepARLockstepMatchesPerPathRollout(t *testing.T) {
	train := sineSeries(220, 24, 50, 20)
	const paths, h = 2*sampleBlock + 5, 7
	d := NewDeepAR(DeepARConfig{
		Context: 16, Hidden: 8, Epochs: 1, Seed: 5, MaxWindows: 24,
		Samples: paths, TrainHorizon: 8, Workers: 2,
	})
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	state0, emit0, err := d.warmup(train)
	if err != nil {
		t.Fatal(err)
	}
	base := d.cfg.Seed + int64(train.Len())
	want := make([][]float64, h)
	for k := range want {
		want[k] = make([]float64, paths)
	}
	for p := 0; p < paths; p++ {
		rng := newPathRand(pathSeed(base, p))
		state, emit := nn.LSTMState{H: slices.Clone(state0.H), C: slices.Clone(state0.C)}, emit0
		for k := 0; k < h; k++ {
			z := emit.Sample(rng)
			want[k][p] = z
			x := append([]float64{z}, timeFeatures(train.TimeAt(train.Len()+k+1))...)
			state, _ = d.cell.StepScratch(nil, x, state)
			out, _ := d.head.ForwardScratch(nil, state.H)
			emit = d.emissionFrom(out)
		}
	}

	got := make([][]float64, h)
	for k := range got {
		got[k] = make([]float64, paths)
	}
	scratches := []*nn.Scratch{nn.NewScratch(), nn.NewScratch()}
	d.sample(train, h, state0, emit0, got, make([]float64, (h-1)*timeFeatureDim), d.cell.PackPanels(nil), scratches, growPathRands(nil, 2*sampleBlock))
	for k := range want {
		for p := range want[k] {
			if math.Float64bits(got[k][p]) != math.Float64bits(want[k][p]) {
				t.Fatalf("step %d path %d: lockstep %v, per-path %v", k, p, got[k][p], want[k][p])
			}
		}
	}
}

// TestTFTConcurrentPredictSharesArenas drives one fitted TFT from several
// goroutines at once: the predict arenas come off a shared free list, so
// under -race this is the test that a call never reads an arena another
// call is writing, and every result must still match the serial one.
func TestTFTConcurrentPredictSharesArenas(t *testing.T) {
	train := sineSeries(220, 24, 50, 20)
	m := NewTFT(TFTConfig{
		Context: 16, Hidden: 8, Epochs: 1, Seed: 5, MaxWindows: 24,
		TrainHorizon: 8,
	})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	hists := []*timeseries.Series{train.Slice(0, 200), train.Slice(0, 210), train}
	want := make([]*QuantileForecast, len(hists))
	for i, h := range hists {
		f, err := m.PredictQuantiles(h, 6, DefaultLevels)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = f
	}
	const callers, rounds = 4, 8
	got := make([][]*QuantileForecast, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f, err := m.PredictQuantiles(hists[(c+r)%len(hists)], 6, DefaultLevels)
				if err != nil {
					t.Error(err)
					return
				}
				got[c] = append(got[c], f)
			}
		}(c)
	}
	wg.Wait()
	for c := range got {
		for r, f := range got[c] {
			quantilesEqual(t, "concurrent tft predict", want[(c+r)%len(hists)], f)
		}
	}
	if n := len(m.arenas.free); n < 1 || n > callers {
		t.Errorf("free list holds %d arenas after %d concurrent callers", n, callers)
	}
}

// TestColdPredictConcurrentWithWarm runs cold predicts from several
// goroutines while one more goroutine drives the same forecaster's warm
// path: a cold call runs on a cache local to the call, so under -race this
// is the test that it never touches the forecaster's own cache, and every
// fan must still match the serial one.
func TestColdPredictConcurrentWithWarm(t *testing.T) {
	train := sineSeries(220, 24, 50, 20)
	conformal := NewConformal(NewSeasonalNaive(24))
	conformal.Horizon = 8
	models := []QuantileForecaster{NewNaive(8), NewSeasonalNaive(24), conformal,
		NewDeepAR(DeepARConfig{Context: 16, Hidden: 8, Epochs: 1, Seed: 5, MaxWindows: 24, Samples: 20, TrainHorizon: 8, Workers: 2})}
	hists := []*timeseries.Series{train.Slice(0, 200), train.Slice(0, 201), train.Slice(0, 210), train}
	for _, m := range models {
		if err := m.Fit(train.Slice(0, 180)); err != nil {
			t.Fatal(err)
		}
		want := make([]*QuantileForecast, len(hists))
		for i, h := range hists {
			f, err := m.PredictQuantiles(h, 6, DefaultLevels)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = f
		}
		const callers, rounds = 4, 6
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					i := (c + r) % len(hists)
					var f *QuantileForecast
					var err error
					if c == 0 {
						f, err = m.(IncrementalForecaster).PredictQuantilesWarm(hists[i], 6, DefaultLevels)
					} else {
						f, err = m.PredictQuantiles(hists[i], 6, DefaultLevels)
					}
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(want[i], f) {
						t.Errorf("%s at origin %d: concurrent fan differs from the serial one", m.Name(), hists[i].Len())
					}
				}
			}(c)
		}
		wg.Wait()
	}
}
