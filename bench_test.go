package robustscale_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches called out in DESIGN.md. Each bench regenerates its
// artifact through the experiment harness; model training is shared across
// benches via a process-wide zoo and excluded from the timed region, so
// the reported time is the cost of regenerating the artifact itself.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// and print the regenerated artifacts with -v via the Example-style logs.

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"robustscale/internal/experiment"
	"robustscale/internal/forecast"
	"robustscale/internal/metrics"
	"robustscale/internal/obs"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

var (
	zooOnce sync.Once
	zooInst *experiment.Zoo
	zooErr  error
)

// benchZoo builds the shared quick-config zoo (and trains models lazily).
func benchZoo(b *testing.B) *experiment.Zoo {
	b.Helper()
	zooOnce.Do(func() {
		zooInst, zooErr = experiment.NewZoo(experiment.QuickConfig())
	})
	if zooErr != nil {
		b.Fatal(zooErr)
	}
	return zooInst
}

// pretrain forces the models a bench needs into the cache before the
// timed region.
func pretrainQuantile(b *testing.B, z *experiment.Zoo, ds experiment.DatasetName, models ...experiment.ModelName) {
	b.Helper()
	for _, m := range models {
		if _, err := z.Quantile(m, ds, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	z := benchZoo(b)
	for _, ds := range []experiment.DatasetName{experiment.Alibaba, experiment.Google} {
		pretrainQuantile(b, z, ds, experiment.QuantileModels...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table1(z)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Table I", func(w io.Writer) error { return experiment.RenderTable1(w, rows) })
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	z := benchZoo(b)
	pretrainQuantile(b, z, experiment.Alibaba, experiment.ModelDeepAR, experiment.ModelTFT)
	if _, err := z.Point(experiment.ModelQB5000, experiment.Alibaba, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table2(z)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Table II", func(w io.Writer) error { return experiment.RenderTable2(w, rows) })
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	z := benchZoo(b)
	pretrainQuantile(b, z, experiment.Alibaba, experiment.ModelDeepAR, experiment.ModelTFT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table3(z)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Table III", func(w io.Writer) error { return experiment.RenderTable3(w, rows) })
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure5(start)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Figure 5", func(w io.Writer) error { return experiment.RenderFigure5(w, rows) })
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	z := benchZoo(b)
	pretrainQuantile(b, z, experiment.Google, experiment.ModelDeepAR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, corrMSE, corrQL, err := experiment.Figure6(z, experiment.Google, experiment.ModelDeepAR)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Figure 6", func(w io.Writer) error {
				return experiment.RenderFigure6(w, points, corrMSE, corrQL)
			})
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	z := benchZoo(b)
	pretrainQuantile(b, z, experiment.Alibaba, experiment.ModelMLP, experiment.ModelDeepAR, experiment.ModelTFT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bands, err := experiment.Figure7(z, experiment.Alibaba)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Figure 7", func(w io.Writer) error { return experiment.RenderFigure7(w, bands) })
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	z := benchZoo(b)
	pretrainQuantile(b, z, experiment.Alibaba, experiment.QuantileModels...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure8(z, experiment.Alibaba)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Figure 8", func(w io.Writer) error { return experiment.RenderFigure8(w, rows) })
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	z := benchZoo(b)
	for _, ds := range []experiment.DatasetName{experiment.Alibaba, experiment.Google} {
		pretrainQuantile(b, z, ds, experiment.ModelDeepAR, experiment.ModelTFT)
		for _, m := range []experiment.ModelName{experiment.ModelQB5000, experiment.ModelTFTPoint} {
			for run := 0; run < 2; run++ {
				if _, err := z.Point(m, ds, run); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ds := range []experiment.DatasetName{experiment.Alibaba, experiment.Google} {
			rows, err := experiment.Figure9(z, ds)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				logRender(b, "Figure 9 "+string(ds), func(w io.Writer) error { return experiment.RenderFigure9(w, rows) })
			}
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	z := benchZoo(b)
	pretrainQuantile(b, z, experiment.Google, experiment.ModelTFT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure10(z, experiment.Google, experiment.ModelTFT)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Figure 10", func(w io.Writer) error { return experiment.RenderFigure10(w, rows) })
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	z := benchZoo(b)
	pretrainQuantile(b, z, experiment.Google, experiment.ModelDeepAR, experiment.ModelTFT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, model := range []experiment.ModelName{experiment.ModelDeepAR, experiment.ModelTFT} {
			cells, err := experiment.Figure11(z, experiment.Google, model)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				logRender(b, "Figure 11 "+string(model), func(w io.Writer) error { return experiment.RenderFigure11(w, cells) })
			}
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	z := benchZoo(b)
	pretrainQuantile(b, z, experiment.Google, experiment.ModelTFT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure12(z, experiment.Google, experiment.ModelTFT, 0.7, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRender(b, "Figure 12", func(w io.Writer) error { return experiment.RenderFigure12(w, rows) })
		}
	}
}

// --- Ablation benches (DESIGN.md section 4) ---

// benchTrace builds a small shared workload for the ablations.
var (
	ablOnce sync.Once
	ablWl   *timeseries.Series
)

func ablationWorkload(b *testing.B) *timeseries.Series {
	b.Helper()
	ablOnce.Do(func() {
		z, err := experiment.NewZoo(experiment.QuickConfig())
		if err != nil {
			panic(err)
		}
		d, err := z.Dataset(experiment.Alibaba)
		if err != nil {
			panic(err)
		}
		ablWl = d.Series
	})
	return ablWl
}

// BenchmarkAblationEmission compares DeepAR's Student-t emission against a
// Gaussian head: same architecture, different likelihood.
func BenchmarkAblationEmission(b *testing.B) {
	wl := ablationWorkload(b)
	train := wl.Slice(0, wl.Len()*7/10)
	for _, emission := range []forecast.Emission{forecast.EmitStudentT, forecast.EmitGaussian} {
		b.Run(string(emission), func(b *testing.B) {
			cfg := forecast.DeepARConfig{
				Context: 72, Hidden: 24, Epochs: 3, LR: 1e-3, Seed: 1,
				MaxWindows: 64, Samples: 100, TrainHorizon: 72, Emission: emission,
			}
			m := forecast.NewDeepAR(cfg)
			if err := m.Fit(train); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.PredictQuantiles(train, 72, forecast.ScalingLevels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSampleCount sweeps DeepAR's Monte-Carlo sample count:
// the accuracy/latency dial behind Table III's inference cost.
func BenchmarkAblationSampleCount(b *testing.B) {
	wl := ablationWorkload(b)
	train := wl.Slice(0, wl.Len()*7/10)
	base := forecast.DeepARConfig{
		Context: 72, Hidden: 24, Epochs: 3, LR: 1e-3, Seed: 1,
		MaxWindows: 64, TrainHorizon: 72,
	}
	for _, samples := range []int{20, 100, 500} {
		cfg := base
		cfg.Samples = samples
		m := forecast.NewDeepAR(cfg)
		if err := m.Fit(train); err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("samples", samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.PredictQuantiles(train, 72, forecast.ScalingLevels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationContext sweeps the TFT context window: longer contexts
// cost quadratically in attention but only help while they add seasonal
// information.
func BenchmarkAblationContext(b *testing.B) {
	wl := ablationWorkload(b)
	train := wl.Slice(0, wl.Len()*7/10)
	evalStart := wl.Len() * 8 / 10
	for _, context := range []int{24, 72, 144} {
		cfg := forecast.TFTConfig{
			Context: context, Hidden: 24, Epochs: 3, LR: 1e-3, Seed: 1,
			MaxWindows: 64, Levels: forecast.ScalingLevels, TrainHorizon: 72,
		}
		m := forecast.NewTFT(cfg)
		if err := m.Fit(train); err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("context", context), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := m.PredictQuantiles(wl.Slice(0, evalStart), 72, forecast.ScalingLevels)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					// One-shot accuracy note for the log.
					actual := wl.Values[evalStart : evalStart+72]
					loss := 0.0
					for t, y := range actual {
						loss += metrics.Pinball(0.9, y, f.At(t, 0.9))
					}
					b.Logf("context=%d pinball@0.9=%.1f", context, loss/72)
				}
			}
		})
	}
}

// BenchmarkAblationConformal compares raw DeepAR against its
// conformal-calibrated wrap on the Alibaba trace, where Table I shows
// DeepAR under-covering: the wrap repairs coverage and with it the robust
// scaler's under-provisioning.
func BenchmarkAblationConformal(b *testing.B) {
	wl := ablationWorkload(b)
	train := wl.Slice(0, wl.Len()*7/10)
	evalStart := wl.Len() * 8 / 10
	base := forecast.DeepARConfig{
		Context: 72, Hidden: 24, Epochs: 8, LR: 1e-3, Seed: 1,
		MaxWindows: 128, Samples: 100, TrainHorizon: 72,
	}

	models := map[string]forecast.QuantileForecaster{}
	raw := forecast.NewDeepAR(base)
	if err := raw.Fit(train); err != nil {
		b.Fatal(err)
	}
	models["raw"] = raw
	wrapped := forecast.NewConformal(forecast.NewDeepAR(base))
	wrapped.Horizon = 72
	if err := wrapped.Fit(train); err != nil {
		b.Fatal(err)
	}
	models["conformal"] = wrapped

	for name, m := range models {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := scaler.Evaluate(
					&scaler.Robust{Forecaster: m, Tau: 0.9, Theta: 100},
					wl,
					scaler.EvalConfig{Theta: 100, Horizon: 72, Start: evalStart},
				)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s: under %.2f%% over %.2f%%", res.Strategy,
						100*res.Report.UnderProvisionRate, 100*res.Report.OverProvisionRate)
				}
			}
		})
	}
}

// BenchmarkSketchObserve measures the health plane's quantile sketch on
// its hot path: one Observe per control-loop sample.
func BenchmarkSketchObserve(b *testing.B) {
	sk := obs.NewSketch(obs.DefaultSketchAlpha)
	vals := sketchBenchValues(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Observe(vals[i&4095])
	}
}

// BenchmarkSketchMerge measures folding one shard's sketch into the
// fleet aggregate, the per-tenant cost of assembling a fleet report.
func BenchmarkSketchMerge(b *testing.B) {
	shard := obs.NewSketch(obs.DefaultSketchAlpha)
	for _, v := range sketchBenchValues(4096) {
		shard.Observe(v)
	}
	agg := obs.NewSketch(obs.DefaultSketchAlpha)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.Merge(shard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchQuantile measures a percentile query against a
// populated sketch (the /slo and report read path).
func BenchmarkSketchQuantile(b *testing.B) {
	sk := obs.NewSketch(obs.DefaultSketchAlpha)
	for _, v := range sketchBenchValues(65536) {
		sk.Observe(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sk.Percentile(99)
	}
	_ = sink
}

// sketchBenchValues generates a deterministic log-spread sample via a
// xorshift generator (no math/rand dependency in the timed setup).
func sketchBenchValues(n int) []float64 {
	vals := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		vals[i] = 1e-3 + float64(state%1_000_000)/1e3
	}
	return vals
}

func benchName(prefix string, n int) string {
	return prefix + "-" + strconv.Itoa(n)
}

// logRender renders an artifact into the bench log on the first
// iteration so `go test -bench . -v` shows the regenerated tables.
func logRender(b *testing.B, title string, render func(io.Writer) error) {
	b.Helper()
	var sb strings.Builder
	if err := render(&sb); err != nil {
		b.Fatal(err)
	}
	b.Logf("%s:\n%s", title, sb.String())
}
