package forecast

import (
	"runtime"
	"sync"
	"testing"

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
func parallelDeepAR(workers, batch int) *DeepAR {
	return NewDeepAR(DeepARConfig{
		Context: 16, Hidden: 8, Epochs: 2, Seed: 5, MaxWindows: 24,
		Samples: 24, TrainHorizon: 8, Workers: workers, Batch: batch,
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
		d := parallelDeepAR(workers, 1)
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
		d := parallelDeepAR(8, 1)
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

// TestDeepARBatchTrainingDeterministicAcrossWorkers pins that
// data-parallel gradient computation merges to bit-identical weights for
// any worker count (same batch size, so the optimizer walk is the same).
func TestDeepARBatchTrainingDeterministicAcrossWorkers(t *testing.T) {
	train := sineSeries(220, 24, 50, 20)
	var ref *QuantileForecast
	for _, workers := range []int{1, 4} {
		d := parallelDeepAR(workers, 4)
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
		quantilesEqual(t, "deepar batch training", ref, f)
	}
}

// TestTFTBatchTrainingDeterministicAcrossWorkers is the same contract for
// the TFT's replica training path, including the gated variant.
func TestTFTBatchTrainingDeterministicAcrossWorkers(t *testing.T) {
	train := sineSeries(220, 24, 50, 20)
	for _, gated := range []bool{false, true} {
		var ref *QuantileForecast
		for _, workers := range []int{1, 4} {
			m := NewTFT(TFTConfig{
				Context: 16, Hidden: 8, Epochs: 2, Seed: 5, MaxWindows: 24,
				TrainHorizon: 8, Gated: gated, Workers: workers, Batch: 4,
			})
			if err := m.Fit(train); err != nil {
				t.Fatal(err)
			}
			f, err := m.PredictQuantiles(train, 6, DefaultLevels)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = f
				continue
			}
			quantilesEqual(t, "tft batch training", ref, f)
		}
	}
}

// TestTFTBatchOneMatchesSequential pins that Batch=1 (the default) walks
// the optimizer exactly like the classic per-window regime even though it
// now routes through a replica: gradients land in zeroed buffers and are
// merged with a single exact addition.
func TestTFTBatchOneMatchesSequential(t *testing.T) {
	train := sineSeries(220, 24, 50, 20)
	var ref *QuantileForecast
	for _, batch := range []int{1, 1} { // two independent fits, same regime
		m := NewTFT(TFTConfig{
			Context: 16, Hidden: 8, Epochs: 2, Seed: 5, MaxWindows: 24,
			TrainHorizon: 8, Batch: batch,
		})
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		f, err := m.PredictQuantiles(train, 6, DefaultLevels)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = f
			continue
		}
		quantilesEqual(t, "tft batch=1 refit", ref, f)
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
		TrainHorizon: 8, Gated: true,
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
