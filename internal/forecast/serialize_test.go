package forecast

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"robustscale/internal/timeseries"
)

// roundTripQuantiles saves a model, loads it into a fresh instance built
// from the same config, and asserts identical forecasts.
func assertSameForecasts(t *testing.T, a, b QuantileForecaster, hist *timeseries.Series, h int) {
	t.Helper()
	levels := []float64{0.1, 0.5, 0.9}
	fa, err := a.PredictQuantiles(hist, h, levels)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.PredictQuantiles(hist, h, levels)
	if err != nil {
		t.Fatal(err)
	}
	for step := range fa.Values {
		for i := range fa.Values[step] {
			if fa.Values[step][i] != fb.Values[step][i] {
				t.Fatalf("forecasts differ at step %d level %d: %v vs %v",
					step, i, fa.Values[step][i], fb.Values[step][i])
			}
		}
	}
}

func TestARIMASaveLoad(t *testing.T) {
	s := noisySine(600, 48, 100, 20, 2, 31)
	hist, _ := splitHoldout(s, 12)
	m := NewSeasonalARIMA(4, 0, 1, 48)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := newARIMA(0, 0, 0) // Load overwrites the order
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	assertSameForecasts(t, m, m2, hist, 12)
	if m2.Name() != m.Name() {
		t.Errorf("loaded name %q vs %q", m2.Name(), m.Name())
	}
}

func TestMLPSaveLoad(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 32)
	hist, _ := splitHoldout(s, 6)
	cfg := MLPConfig{Context: 24, Hidden: 12, Epochs: 5, Seed: 1, MaxWindows: 48}
	m := NewMLP(cfg)
	if err := m.FitHorizon(hist, 6); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(cfg)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	assertSameForecasts(t, m, m2, hist, 6)
}

func TestDeepARSaveLoad(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 33)
	hist, _ := splitHoldout(s, 6)
	cfg := DeepARConfig{Context: 24, Hidden: 10, Epochs: 3, Seed: 1, MaxWindows: 48, Samples: 30, TrainHorizon: 6}
	m := NewDeepAR(cfg)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewDeepAR(cfg)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	assertSameForecasts(t, m, m2, hist, 6)
}

func TestTFTSaveLoad(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 34)
	hist, _ := splitHoldout(s, 6)
	cfg := TFTConfig{Context: 24, Hidden: 10, Epochs: 3, Seed: 1, MaxWindows: 48,
		Levels: []float64{0.1, 0.5, 0.9}, TrainHorizon: 6}
	m := NewTFT(cfg)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewTFT(cfg)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	assertSameForecasts(t, m, m2, hist, 6)
}

func TestQB5000SaveLoad(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 35)
	hist, _ := splitHoldout(s, 6)
	cfg := QB5000Config{Context: 24, Hidden: 8, Epochs: 2, Seed: 1, MaxWindows: 48, TrainHorizon: 6}
	m := NewQB5000(cfg)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewQB5000(cfg)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	p1, err := m.Predict(hist, 6)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.Predict(hist, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("predictions differ at %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestSaveUnfittedFails(t *testing.T) {
	if err := newARIMA(1, 0, 0).Save(&bytes.Buffer{}); err != ErrNotFitted {
		t.Errorf("arima err = %v", err)
	}
	if err := NewMLP(MLPConfig{}).Save(&bytes.Buffer{}); err != ErrNotFitted {
		t.Errorf("mlp err = %v", err)
	}
	if err := NewDeepAR(DeepARConfig{}).Save(&bytes.Buffer{}); err != ErrNotFitted {
		t.Errorf("deepar err = %v", err)
	}
	if err := NewTFT(TFTConfig{}).Save(&bytes.Buffer{}); err != ErrNotFitted {
		t.Errorf("tft err = %v", err)
	}
	if err := NewQB5000(QB5000Config{}).Save(&bytes.Buffer{}); err != ErrNotFitted {
		t.Errorf("qb5000 err = %v", err)
	}
}

func TestLoadKindMismatch(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 36)
	hist, _ := splitHoldout(s, 6)
	cfg := TFTConfig{Context: 24, Hidden: 10, Epochs: 1, Seed: 1, MaxWindows: 24,
		Levels: []float64{0.5}, TrainHorizon: 6}
	m := NewTFT(cfg)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wrong := NewDeepAR(DeepARConfig{Context: 24, Hidden: 10, TrainHorizon: 6})
	if err := wrong.Load(&buf); err == nil {
		t.Error("loading tft snapshot into deepar should fail")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	junk := bytes.NewBufferString("not a gob stream")
	if err := newARIMA(1, 0, 0).Load(junk); err == nil {
		t.Error("garbage should fail")
	}
	if err := NewMLP(MLPConfig{}).Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage should fail")
	}
}

// TestLoadFromNonByteReader round-trips every snapshot that is more than
// one gob stream (envelope, then parameters or members) through readers
// that are not io.ByteReaders — a bare io.Reader and a real file, which
// is what cmd/forecast hands Load. A gob decoder reads ahead on those, so
// a Load that gives the raw reader to a second decoder loses bytes.
func TestLoadFromNonByteReader(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 36)
	hist, _ := splitHoldout(s, 6)
	type model interface {
		Forecaster
		Snapshotter
	}
	small := MLPConfig{Context: 24, Hidden: 8, Epochs: 2, Seed: 1, MaxWindows: 48}
	cases := map[string]func() model{
		"mlp":  func() model { return NewMLP(small) },
		"qmlp": func() model { return NewQuantileMLP(small, []float64{0.1, 0.5, 0.9}) },
		"deepar": func() model {
			return NewDeepAR(DeepARConfig{Context: 24, Hidden: 8, Epochs: 2, Seed: 1, MaxWindows: 48, Samples: 20, TrainHorizon: 6})
		},
		"tft": func() model {
			return NewTFT(TFTConfig{Context: 24, Hidden: 8, Epochs: 2, Seed: 1, MaxWindows: 48, Levels: []float64{0.1, 0.5, 0.9}, TrainHorizon: 6})
		},
		"qb5000": func() model {
			return NewQB5000(QB5000Config{Context: 24, Hidden: 8, Epochs: 2, Seed: 1, MaxWindows: 48, TrainHorizon: 6})
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			m := build()
			if err := m.Fit(hist); err != nil {
				t.Fatal(err)
			}
			want, err := m.Predict(hist, 6)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "model.gob")
			if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for via, r := range map[string]io.Reader{
				"plain reader": struct{ io.Reader }{bytes.NewReader(buf.Bytes())},
				"file":         f,
			} {
				m2 := build()
				if err := m2.Load(r); err != nil {
					t.Fatalf("%s: %v", via, err)
				}
				got, err := m2.Predict(hist, 6)
				if err != nil {
					t.Fatalf("%s: %v", via, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: prediction %d = %v, want %v", via, i, got[i], want[i])
					}
				}
			}
		})
	}
}
