package forecast

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"robustscale/internal/timeseries"
	"robustscale/internal/wire"
)

// Snapshotter is the persistence contract of a checkpointable
// forecaster: Save writes the fitted state, Load restores it into a
// receiver constructed with the same configuration. Every forecaster a
// strategy can be built on implements it, so the control plane can warm
// start from a checkpoint without retraining any of them.
type Snapshotter interface {
	Save(w io.Writer) error
	Load(r io.Reader) error
}

// Statically guarantee the full strategy-buildable zoo is snapshotable.
var (
	_ Snapshotter = (*ARIMA)(nil)
	_ Snapshotter = (*MLP)(nil)
	_ Snapshotter = (*QuantileMLP)(nil)
	_ Snapshotter = (*DeepAR)(nil)
	_ Snapshotter = (*TFT)(nil)
	_ Snapshotter = (*QB5000)(nil)
	_ Snapshotter = (*Naive)(nil)
	_ Snapshotter = (*SeasonalNaive)(nil)
)

// Save writes the fitted residual distributions, one row per horizon
// step (layout in DESIGN.md §8). Like every blob in the wire codec it is
// not self-delimiting: Load takes the reader to its end, so a caller that
// puts several blobs on one stream frames each one.
func (n *Naive) Save(w io.Writer) error {
	if !n.fitted {
		return ErrNotFitted
	}
	b := binary.AppendUvarint(wire.Scratch(w), uint64(len(n.residuals)))
	b = binary.AppendVarint(b, int64(n.MaxResiduals))
	for _, row := range n.residuals {
		b = wire.AppendFloats(b, row)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("forecast: saving naive: %w", err)
	}
	return nil
}

// Load restores a model saved by Save, overwriting the receiver's
// horizon and residual history.
func (n *Naive) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	residuals := make([][]float64, rd.Count(1)) // an empty row is one byte
	maxResiduals := rd.Int()
	for k := range residuals {
		residuals[k] = rd.Floats()
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("forecast: loading naive: %w", err)
	}
	if len(residuals) == 0 {
		return fmt.Errorf("forecast: naive snapshot has no residual rows")
	}
	n.horizon, n.MaxResiduals, n.residuals = len(residuals), maxResiduals, residuals
	n.WarmReset() // restored residuals invalidate cached offsets
	n.fitted = true
	return nil
}

// Save writes the fitted seasonal residual distribution.
func (s *SeasonalNaive) Save(w io.Writer) error {
	if !s.fitted {
		return ErrNotFitted
	}
	b := wire.AppendVarints(wire.Scratch(w), int64(s.Period), int64(s.MaxResiduals))
	if _, err := w.Write(wire.AppendFloats(b, s.residuals)); err != nil {
		return fmt.Errorf("forecast: saving %s: %w", s.Name(), err)
	}
	return nil
}

// Load restores a model saved by Save, overwriting the receiver's
// period and residual history.
func (s *SeasonalNaive) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	period, maxResiduals, residuals := rd.Int(), rd.Int(), rd.Floats()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("forecast: loading seasonal-naive: %w", err)
	}
	if period <= 0 {
		return fmt.Errorf("forecast: seasonal-naive snapshot has non-positive period %d", period)
	}
	s.Period, s.MaxResiduals, s.residuals = period, maxResiduals, residuals
	s.WarmReset() // restored residuals invalidate cached offsets
	s.fitted = true
	return nil
}

// quantileMLPEnvelope extends the neural envelope with the trained
// quantile grid, which fixes the head width (horizon × levels).
type quantileMLPEnvelope struct {
	Kind    string
	Horizon int
	Mean    float64
	Std     float64
	Levels  []float64
}

// Save writes the trained network, grid, and normalization statistics.
func (m *QuantileMLP) Save(w io.Writer) error {
	if !m.fitted {
		return ErrNotFitted
	}
	env := quantileMLPEnvelope{
		Kind: "mlp-quantile", Horizon: m.horizon,
		Mean: m.scaler.Mean, Std: m.scaler.Std, Levels: m.Levels,
	}
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("forecast: saving mlp-quantile: %w", err)
	}
	return m.params.Save(w)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same MLPConfig; the quantile grid is taken from
// the snapshot (it determines the head width).
func (m *QuantileMLP) Load(r io.Reader) error {
	r = byteReader(r)
	var env quantileMLPEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return fmt.Errorf("forecast: loading mlp-quantile: %w", err)
	}
	if env.Kind != "mlp-quantile" {
		return fmt.Errorf("forecast: snapshot is %q, not mlp-quantile", env.Kind)
	}
	levels, err := normalizeLevels(env.Levels)
	if err != nil {
		return err
	}
	// The grid must be set before build: the head emits h*len(Levels)
	// outputs.
	m.Levels = levels
	m.build(env.Horizon)
	m.scaler = timeseries.StandardScaler{Mean: env.Mean, Std: env.Std}
	if err := m.params.Load(r); err != nil {
		return err
	}
	m.fitted = true
	return nil
}
