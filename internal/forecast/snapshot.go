package forecast

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

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
	_ Snapshotter = (*Ensemble)(nil)
)

// Save writes the fitted residual distributions, one row per horizon
// step (layout in DESIGN.md §8). Like every blob in the wire codec it is
// not self-delimiting: Load takes the reader to its end, so a composite
// saver frames it (see Ensemble).
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

// ensembleEnvelope is the gob header of an ensemble snapshot: member
// names pin the composition, weights and workers restore the config.
type ensembleEnvelope struct {
	Names   []string
	Weights []float64
	Workers int
}

// Save writes the combination weights followed by every member's own
// snapshot on the same stream, each behind a uvarint byte count: a member
// in the wire codec does not say where it ends, and Load hands each
// member exactly its own bytes. Every member must implement Snapshotter.
func (e *Ensemble) Save(w io.Writer) error {
	if len(e.Members) == 0 {
		return fmt.Errorf("forecast: ensemble has no members")
	}
	env := ensembleEnvelope{Weights: e.Weights, Workers: e.Workers}
	for _, m := range e.Members {
		env.Names = append(env.Names, m.Name())
		if _, ok := m.(Snapshotter); !ok {
			return fmt.Errorf("forecast: ensemble member %s does not support Save", m.Name())
		}
	}
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("forecast: saving ensemble: %w", err)
	}
	var member bytes.Buffer
	for _, m := range e.Members {
		member.Reset()
		if err := m.(Snapshotter).Save(&member); err != nil {
			return fmt.Errorf("forecast: saving ensemble member %s: %w", m.Name(), err)
		}
		_, err := w.Write(binary.AppendUvarint(nil, uint64(member.Len())))
		if err == nil {
			_, err = member.WriteTo(w)
		}
		if err != nil {
			return fmt.Errorf("forecast: saving ensemble member %s: %w", m.Name(), err)
		}
	}
	return nil
}

// Load restores an ensemble saved by Save. The receiver must already
// hold members of the same kinds in the same order (the snapshot
// restores their fitted state, not their construction); member names
// are validated against the snapshot before any weight is touched.
func (e *Ensemble) Load(r io.Reader) error {
	r = byteReader(r)
	var env ensembleEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return fmt.Errorf("forecast: loading ensemble: %w", err)
	}
	if len(env.Names) != len(e.Members) {
		return fmt.Errorf("forecast: snapshot has %d members, receiver has %d", len(env.Names), len(e.Members))
	}
	snaps := make([]Snapshotter, len(e.Members))
	for i, m := range e.Members {
		s, ok := m.(Snapshotter)
		if !ok {
			return fmt.Errorf("forecast: ensemble member %s does not support Load", m.Name())
		}
		snaps[i] = s
	}
	for i, s := range snaps {
		size, err := binary.ReadUvarint(r.(io.ByteReader))
		if err != nil {
			return fmt.Errorf("forecast: loading ensemble member %d: %w", i, err)
		}
		// The limit is the frame, not an allocation: a member reads what
		// is there and fails on a short stream.
		member := &io.LimitedReader{R: r, N: int64(min(size, math.MaxInt64))}
		if err := s.Load(member); err != nil {
			return fmt.Errorf("forecast: loading ensemble member %d: %w", i, err)
		}
		if member.N != 0 {
			return fmt.Errorf("forecast: ensemble member %d left %d bytes of its snapshot unread", i, member.N)
		}
		// Loading can rewrite name-bearing config (e.g. a seasonal
		// period), so validate after restore.
		if got := e.Members[i].Name(); got != env.Names[i] {
			return fmt.Errorf("forecast: ensemble member %d is %q, snapshot holds %q", i, got, env.Names[i])
		}
	}
	e.Weights = env.Weights
	e.Workers = env.Workers
	e.WarmReset() // restored members invalidate any cached warm state
	return nil
}
