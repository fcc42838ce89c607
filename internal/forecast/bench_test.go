package forecast

import (
	"fmt"
	"testing"
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
