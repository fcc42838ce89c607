package forecast

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"robustscale/internal/nn"
)

// TestNeuralModelsHoldNoGradients holds every nn-backed forecaster to its
// weights: gradient buffers live only inside Fit, so neither a fitted nor
// a restored model keeps one, and a restored model's live heap is at most
// 1.1x the snapshot it was read from. The architectures are the paper's
// defaults, whose gradients, were they kept, would double a model's heap.
// Training is cut to one epoch over 8 windows, except QB5000's, whose
// kernel component keeps its training windows and so keeps the default
// count.
func TestNeuralModelsHoldNoGradients(t *testing.T) {
	hist := noisySine(600, 288, 100, 20, 2, 51)
	const epochs, windows = 1, 8
	deepar := func() *DeepAR {
		cfg := DefaultDeepARConfig()
		cfg.Epochs, cfg.MaxWindows = epochs, windows
		return NewDeepAR(cfg)
	}
	tft := func() *TFT {
		cfg := DefaultTFTConfig()
		cfg.Epochs, cfg.MaxWindows = epochs, windows
		return NewTFT(cfg)
	}
	qb := func() *QB5000 {
		cfg := DefaultQB5000Config()
		cfg.Epochs = epochs
		return NewQB5000(cfg)
	}
	mlpCfg := MLPConfig{Epochs: epochs, Seed: 1, MaxWindows: windows} // NewMLP fills the paper's architecture
	type model interface {
		Forecaster
		Snapshotter
	}
	cases := []struct {
		name   string
		build  func() model
		params func(model) nn.Params
	}{
		{"deepar", func() model { return deepar() }, func(m model) nn.Params { return m.(*DeepAR).params }},
		{"tft", func() model { return tft() }, func(m model) nn.Params { return m.(*TFT).params }},
		{"mlp", func() model { return NewMLP(mlpCfg) }, func(m model) nn.Params { return m.(*MLP).params }},
		{"qb5000", func() model { return qb() }, func(m model) nn.Params { return m.(*QB5000).params }},
	}
	noGrads := func(t *testing.T, when string, ps nn.Params) {
		t.Helper()
		if len(ps) == 0 {
			t.Fatalf("%s: no parameters", when)
		}
		for _, p := range ps {
			if p.Grad.Data != nil {
				t.Errorf("%s: %s holds a %dx%d gradient buffer", when, p.Name, p.Grad.Rows, p.Grad.Cols)
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The fitted model is garbage once fitted returns, so the
			// heap delta below counts the restored model alone.
			fitted := func() []byte {
				m := c.build()
				if err := m.Fit(hist); err != nil {
					t.Fatal(err)
				}
				noGrads(t, "after Fit", c.params(m))
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			blob := fitted()

			// Restarting the world (after ReadMemStats or a GC) may
			// start an OS thread, whose m, g0 and gsignal (~5.5 KB,
			// runtime.allocm) then land on the heap inside the window:
			// deepar read 46 616 B for its 41 112. Those only add, so
			// the smallest of three readings is the model's own.
			live := int64(math.MaxInt64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.GC() // twice: the first only moves pooled scratch to the victim cache
				runtime.GC()
				runtime.ReadMemStats(&before)
				restored := c.build()
				if err := restored.Load(bytes.NewReader(blob)); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				noGrads(t, "after Load", c.params(restored))
				live = min(live, int64(after.HeapAlloc)-int64(before.HeapAlloc))
				runtime.KeepAlive(restored)
			}
			runtime.KeepAlive(blob)
			if ratio := float64(live) / float64(len(blob)); ratio > 1.1 {
				t.Errorf("restored model holds %d B for a %d B snapshot (%.2fx, want <= 1.1x)", live, len(blob), ratio)
			}
		})
	}
}
