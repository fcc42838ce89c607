package forecast

import (
	"fmt"
	"testing"

	"robustscale/internal/timeseries"
)

// BenchmarkDeepARFit measures training cost: one Adam step per window.
func BenchmarkDeepARFit(b *testing.B) {
	train := sineSeries(400, 24, 50, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDeepAR(DeepARConfig{
			Context: 24, Hidden: 16, Epochs: 1, Seed: 1, MaxWindows: 48,
			Samples: 10, TrainHorizon: 12,
		})
		if err := d.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTFTFit is one TFT fit at the shape bench's paper-pipeline
// fits: the default configuration, one epoch, on fourteen days of
// ten-minute steps.
func BenchmarkTFTFit(b *testing.B) {
	train := sineSeries(14*144, 144, 50, 20)
	cfg := DefaultTFTConfig()
	cfg.Epochs = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewTFT(cfg).Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeepARPredictQuantiles measures ancestral sampling — DeepAR's
// dominant inference cost (Tables II/III) and the headline target of the
// parallel pipeline: it must scale with worker count while returning
// bit-identical quantiles.
func BenchmarkDeepARPredictQuantiles(b *testing.B) {
	train := sineSeries(400, 24, 50, 20)
	for _, workers := range []int{1, 2, 4, 8} {
		d := NewDeepAR(DeepARConfig{
			Context: 48, Hidden: 32, Epochs: 1, Seed: 1, MaxWindows: 48,
			Samples: 100, TrainHorizon: 24, Workers: workers,
		})
		if err := d.Fit(train); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.PredictQuantiles(train, 24, DefaultLevels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTFTPredictQuantiles is the fast single-pass counterpart, for
// the DeepAR-vs-TFT inference cost contrast the paper draws.
func BenchmarkTFTPredictQuantiles(b *testing.B) {
	train := sineSeries(400, 24, 50, 20)
	m := NewTFT(TFTConfig{
		Context: 48, Hidden: 32, Epochs: 1, Seed: 1, MaxWindows: 48,
		TrainHorizon: 24,
	})
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictQuantiles(train, 24, DefaultLevels); err != nil {
			b.Fatal(err)
		}
	}
}

// The warm benchmarks run the paper pipeline's model shape — context 72,
// hidden 32, 100 sample paths — one planning round per op at horizon 12,
// the origin advancing 12 steps a round over one shared history, as
// scaler.Evaluate drives them. They are the per-layer rows beside the nn
// kernels: read ns/op and allocs/op (-benchmem) before and after a change
// to the forward pass or the rollout.

// warmSeries is a history long enough for 150 rounds after the 1 000
// steps the warm benchmarks fit on.
func warmSeries() *timeseries.Series { return sineSeries(2800, 144, 50, 20) }

// benchWarmRounds runs one warm planning round per op. When the origin
// reaches the end of s it wraps to the start, a shrunk history the warm
// path answers cold: one rebuild per 150 rounds.
func benchWarmRounds(b *testing.B, m IncrementalForecaster, s *timeseries.Series) {
	const start, h = 1000, 12
	view := &timeseries.Series{Name: s.Name, Start: s.Start, Step: s.Step}
	origin := start
	round := func() {
		view.Values = s.Values[:origin]
		if _, err := m.PredictQuantilesWarm(view, h, DefaultLevels); err != nil {
			b.Fatal(err)
		}
		if origin += h; origin > s.Len() {
			origin = start
		}
	}
	round() // grow the pooled buffers outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkTFTPredictQuantilesWarm is the warm TFT round: one forward
// pass on the forecaster's own pass and fan, 0 allocs/op.
func BenchmarkTFTPredictQuantilesWarm(b *testing.B) {
	s := warmSeries()
	m := NewTFT(TFTConfig{
		Context: 72, Hidden: 32, Epochs: 1, Seed: 1, MaxWindows: 8,
		TrainHorizon: 12,
	})
	if err := m.Fit(s.Slice(0, 1000)); err != nil {
		b.Fatal(err)
	}
	benchWarmRounds(b, m, s)
}

// BenchmarkDeepARPredictQuantilesWarm is the warm DeepAR round: the
// conditioning advance plus the lockstep Monte-Carlo rollout. With more
// than one worker the fan-out's goroutines are its only allocations.
func BenchmarkDeepARPredictQuantilesWarm(b *testing.B) {
	s := warmSeries()
	for _, workers := range []int{1, 2} {
		m := NewDeepAR(DeepARConfig{
			Context: 72, Hidden: 32, Epochs: 1, Seed: 1, MaxWindows: 8,
			Samples: 100, TrainHorizon: 12, Workers: workers,
		})
		if err := m.Fit(s.Slice(0, 1000)); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) { benchWarmRounds(b, m, s) })
	}
}
