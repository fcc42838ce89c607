package forecast

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"robustscale/internal/timeseries"
	"robustscale/internal/wire"
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

// TestLoadFromNonByteReader round-trips every model snapshot through
// readers that are not io.ByteReaders — a bare io.Reader and a real file,
// which is what cmd/forecast hands Load — and holds the loaded model's
// point and quantile forecasts to the saved one's bits.
func TestLoadFromNonByteReader(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 36)
	hist, _ := splitHoldout(s, 6)
	type model interface {
		Forecaster
		Snapshotter
	}
	small := MLPConfig{Context: 24, Hidden: 8, Epochs: 2, Seed: 1, MaxWindows: 48}
	cases := map[string]func() model{
		"arima": func() model { return NewSeasonalARIMA(2, 0, 1, 24) },
		"mlp":   func() model { return NewMLP(small) },
		"qmlp":  func() model { return NewQuantileMLP(small, []float64{0.1, 0.5, 0.9}) },
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
			path := filepath.Join(t.TempDir(), "model.bin")
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
				if qf, ok := m.(QuantileForecaster); ok {
					assertSameForecasts(t, qf, m2.(QuantileForecaster), hist, 6)
				}
			}
		})
	}
}

// TestLoadRejectsImpossibleSnapshot: a snapshot whose header no fitted
// model could have written fails to load instead of loading and
// panicking later (an ARIMA order that disagrees with its coefficients
// indexes past them in every forecast) or panicking in Load itself (a
// negative horizon sizes the network's head).
func TestLoadRejectsImpossibleSnapshot(t *testing.T) {
	arima := func(p, d, q, period int64, phi, theta []float64) []byte {
		b := wire.AppendFloats(wire.AppendFloats(wire.AppendVarints(nil, p, d, q, period), phi), theta)
		return wire.AppendFloat(wire.AppendFloat(b, 3), 1.5)
	}
	neural := func(kind string, horizon int64, levels ...float64) []byte {
		b := wire.AppendVarints(wire.AppendSection(nil, kind), horizon)
		return wire.AppendFloats(wire.AppendFloat(wire.AppendFloat(b, 50), 10), levels)
	}
	small := MLPConfig{Context: 8, Hidden: 2, Seed: 1}
	for _, tc := range []struct {
		name string
		into Snapshotter
		blob []byte
	}{
		{"arima P above its AR coefficients", newARIMA(0, 0, 0), arima(3, 0, 0, 0, []float64{0.5}, nil)},
		{"arima P below its AR coefficients", newARIMA(0, 0, 0), arima(0, 0, 0, 0, []float64{0.5}, nil)},
		{"arima Q above its MA coefficients", newARIMA(0, 0, 0), arima(1, 0, 2, 0, []float64{0.5}, []float64{0.1})},
		{"arima negative D", newARIMA(0, 0, 0), arima(1, -1, 0, 0, []float64{0.5}, nil)},
		{"arima negative seasonal period", newARIMA(0, 0, 0), arima(1, 0, 0, -24, []float64{0.5}, nil)},
		{"mlp negative horizon", NewMLP(small), neural("mlp", -3)},
		{"mlp zero horizon", NewMLP(small), neural("mlp", 0)},
		{"mlp-quantile negative horizon", NewQuantileMLP(small, []float64{0.5}), neural("mlp-quantile", -3, 0.5)},
		{"mlp-quantile zero horizon", NewQuantileMLP(small, []float64{0.5}), neural("mlp-quantile", 0, 0.5)},
		{"mlp horizon past its bytes", NewMLP(small), neural("mlp", 1<<40)},
	} {
		if err := tc.into.Load(bytes.NewReader(tc.blob)); err == nil {
			t.Errorf("%s: loaded", tc.name)
		}
	}
	a := newARIMA(0, 0, 0)
	if err := a.Load(bytes.NewReader(arima(1, 1, 1, 24, []float64{0.5}, []float64{0.1}))); err != nil {
		t.Fatalf("a consistent arima snapshot: %v", err)
	}
	if _, err := a.PredictQuantiles(noisySine(200, 24, 50, 10, 1, 37), 3, []float64{0.1, 0.9}); err != nil {
		t.Fatalf("predicting from a consistent arima snapshot: %v", err)
	}
}

// TestQB5000LoadRefusesMisshapenBlob: a blob whose linear rows or kernel
// memory do not have the shapes the receiver's config gives them is
// refused, and the refused load leaves a fitted receiver's forecast and
// saved bytes as they were.
func TestQB5000LoadRefusesMisshapenBlob(t *testing.T) {
	cfg := QB5000Config{Context: 8, Hidden: 2, Epochs: 1, Seed: 1, MaxWindows: 4, TrainHorizon: 2}
	hist := noisySine(120, 12, 50, 10, 1, 38)
	src := NewQB5000(cfg)
	if err := src.Fit(hist); err != nil {
		t.Fatal(err)
	}
	blob := func(lin, kx, ky [][]float64) []byte {
		b := wire.AppendFloat(wire.AppendFloat(nil, src.scaler.Mean), src.scaler.Std)
		return src.params.Append(wire.AppendRows(wire.AppendRows(wire.AppendRows(b, lin), kx), ky))
	}
	lin, kx, ky := src.linCoef, src.kernelX, src.kernelY
	if err := NewQB5000(cfg).Load(bytes.NewReader(blob(lin, kx, ky))); err != nil {
		t.Fatalf("the model's own components: %v", err)
	}
	short := func(rows [][]float64, i int) [][]float64 {
		out := append([][]float64(nil), rows...)
		out[i] = out[i][:len(out[i])-1]
		return out
	}
	into := NewQB5000(cfg)
	if err := into.Fit(noisySine(120, 12, 40, 5, 1, 39)); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := into.Save(&saved); err != nil {
		t.Fatal(err)
	}
	want, err := into.Predict(hist, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"a linear row missing", blob(lin[:1], kx, ky)},
		{"a linear row too many", blob(append(lin, lin[0]), kx, ky)},
		{"a short linear row", blob(short(lin, 1), kx, ky)},
		{"a short kernel key", blob(lin, short(kx, 0), ky)},
		{"a kernel target missing", blob(lin, kx, ky[1:])},
		{"a short kernel target", blob(lin, kx, short(ky, len(ky)-1))},
	} {
		if err := into.Load(bytes.NewReader(tc.blob)); err == nil {
			t.Errorf("%s: loaded", tc.name)
		}
		var after bytes.Buffer
		if err := into.Save(&after); err != nil {
			t.Fatal(err)
		}
		got, err := into.Predict(hist, 2)
		if err != nil || !reflect.DeepEqual(got, want) || !bytes.Equal(after.Bytes(), saved.Bytes()) {
			t.Errorf("%s: the refused load changed the receiver: forecast %v (%v), was %v", tc.name, got, err, want)
		}
	}
}

// FuzzLoadModel feeds arbitrary bytes to the six model Loads at tiny
// sizes — the first byte picks the model: it loads or it errors, it never
// panics, and it never allocates more than a small multiple of its input
// plus a fixed allowance for the tiny networks themselves. A model that
// loads must then forecast one step without panicking (an error is fine).
func FuzzLoadModel(f *testing.F) {
	tiny := MLPConfig{Context: 8, Hidden: 2, Epochs: 1, Seed: 1, MaxWindows: 4}
	models := []func() Snapshotter{
		func() Snapshotter { return NewSeasonalARIMA(2, 0, 1, 12) },
		func() Snapshotter { return NewMLP(tiny) },
		func() Snapshotter { return NewQuantileMLP(tiny, []float64{0.1, 0.9}) },
		func() Snapshotter {
			return NewDeepAR(DeepARConfig{Context: 8, Hidden: 2, Epochs: 1, Seed: 1, MaxWindows: 4, Samples: 4, TrainHorizon: 2})
		},
		func() Snapshotter {
			return NewTFT(TFTConfig{Context: 8, Hidden: 2, Epochs: 1, Seed: 1, MaxWindows: 4, Levels: []float64{0.5}, TrainHorizon: 2})
		},
		func() Snapshotter {
			return NewQB5000(QB5000Config{Context: 8, Hidden: 2, Epochs: 1, Seed: 1, MaxWindows: 4, TrainHorizon: 2})
		},
		func() Snapshotter { return NewNaive(2) },
		func() Snapshotter { return NewSeasonalNaive(12) },
	}
	hist := noisySine(120, 12, 50, 10, 1, 38)
	for i, build := range models {
		m := build()
		if err := m.(Forecaster).Fit(hist); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		blob := buf.Bytes()
		if err := build().Load(bytes.NewReader(blob)); err != nil {
			f.Fatalf("model %d does not load its own blob: %v", i, err)
		}
		f.Add(append([]byte{byte(i)}, blob...))
		f.Add(append([]byte{byte(i)}, blob[:len(blob)/2]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := models[int(data[0])%len(models)]()
		blob := data[1:]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := m.Load(bytes.NewReader(blob)) // an error is a fine outcome
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(blob)+(1<<20)); grew > limit {
			t.Fatalf("loading %d bytes allocated %d, limit %d", len(blob), grew, limit)
		}
		if err == nil {
			_, _ = m.(Forecaster).Predict(hist, 1)
		}
	})
}
