package forecast

import (
	"bytes"
	"math"
	"testing"

	"robustscale/internal/wire"
)

func TestNaiveSaveLoad(t *testing.T) {
	s := noisySine(400, 24, 50, 10, 1, 41)
	hist, _ := splitHoldout(s, 6)
	m := NewNaive(6)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewNaive(1) // Load overwrites the horizon
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	assertSameForecasts(t, m, m2, hist, 6)
}

func TestSeasonalNaiveSaveLoad(t *testing.T) {
	s := noisySine(400, 24, 50, 10, 1, 42)
	hist, _ := splitHoldout(s, 6)
	m := NewSeasonalNaive(24)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewSeasonalNaive(1) // Load overwrites the period
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	assertSameForecasts(t, m, m2, hist, 6)
	if m2.Name() != m.Name() {
		t.Errorf("loaded name %q vs %q", m2.Name(), m.Name())
	}
}

// TestNaiveLoadRejectsUnusableResiduals holds both naive models' Load to
// the residual rows Fit writes: non-empty, sorted and finite. Each blob
// below used to load, and the next PredictQuantiles either panicked on an
// empty row or read quantiles off an unsorted one.
func TestNaiveLoadRejectsUnusableResiduals(t *testing.T) {
	hist := noisySine(100, 24, 50, 10, 1, 44)
	for _, c := range []struct {
		name string
		m    Snapshotter
		blob []byte
	}{
		{"naive empty row", NewNaive(1), []byte{0x01, 0x00, 0x00}},
		{"naive NaN row", NewNaive(1), wire.AppendFloats([]byte{0x01, 0x00}, []float64{1, math.NaN()})},
		{"seasonal no residuals", NewSeasonalNaive(1), wire.AppendFloats(wire.AppendVarints(nil, 24, 0), nil)},
		{"seasonal unsorted", NewSeasonalNaive(1), wire.AppendFloats(wire.AppendVarints(nil, 24, 0), []float64{5, -3, 1})},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.m.Load(bytes.NewReader(c.blob)); err == nil {
				fan, err := c.m.(QuantileForecaster).PredictQuantiles(hist, 1, []float64{0.1, 0.9})
				t.Fatalf("loaded; predict gave %v, %v", fan, err)
			}
		})
	}
}

func TestQuantileMLPSaveLoad(t *testing.T) {
	s := noisySine(500, 24, 50, 10, 1, 43)
	hist, _ := splitHoldout(s, 6)
	cfg := MLPConfig{Context: 24, Hidden: 12, Epochs: 4, Seed: 1, MaxWindows: 48}
	m := NewQuantileMLP(cfg, []float64{0.1, 0.5, 0.9})
	if err := m.FitHorizon(hist, 6); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The grid comes from the snapshot, so the fresh receiver may start
	// with the default levels.
	m2 := NewQuantileMLP(cfg, nil)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	assertSameForecasts(t, m, m2, hist, 6)
}

func TestSnapshotSaveUnfittedFails(t *testing.T) {
	if err := NewNaive(6).Save(&bytes.Buffer{}); err != ErrNotFitted {
		t.Errorf("naive err = %v", err)
	}
	if err := NewSeasonalNaive(24).Save(&bytes.Buffer{}); err != ErrNotFitted {
		t.Errorf("seasonal-naive err = %v", err)
	}
	if err := NewQuantileMLP(MLPConfig{}, nil).Save(&bytes.Buffer{}); err != ErrNotFitted {
		t.Errorf("quantile-mlp err = %v", err)
	}
}
