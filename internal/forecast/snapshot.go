package forecast

import (
	"encoding/gob"
	"fmt"
	"io"

	"robustscale/internal/timeseries"
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

// naiveState is the gob image of a fitted Naive forecaster.
type naiveState struct {
	Horizon      int
	MaxResiduals int
	Residuals    [][]float64
}

// Save writes the fitted residual distributions.
func (n *Naive) Save(w io.Writer) error {
	if !n.fitted {
		return ErrNotFitted
	}
	st := naiveState{Horizon: n.horizon, MaxResiduals: n.MaxResiduals, Residuals: n.residuals}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("forecast: saving naive: %w", err)
	}
	return nil
}

// Load restores a model saved by Save, overwriting the receiver's
// horizon and residual history.
func (n *Naive) Load(r io.Reader) error {
	var st naiveState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("forecast: loading naive: %w", err)
	}
	if st.Horizon <= 0 || len(st.Residuals) != st.Horizon {
		return fmt.Errorf("forecast: naive snapshot has %d residual rows for horizon %d", len(st.Residuals), st.Horizon)
	}
	n.horizon, n.MaxResiduals, n.residuals = st.Horizon, st.MaxResiduals, st.Residuals
	n.WarmReset() // restored residuals invalidate cached offsets
	n.fitted = true
	return nil
}

// seasonalNaiveState is the gob image of a fitted SeasonalNaive.
type seasonalNaiveState struct {
	Period       int
	MaxResiduals int
	Residuals    []float64
}

// Save writes the fitted seasonal residual distribution.
func (s *SeasonalNaive) Save(w io.Writer) error {
	if !s.fitted {
		return ErrNotFitted
	}
	st := seasonalNaiveState{Period: s.Period, MaxResiduals: s.MaxResiduals, Residuals: s.residuals}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("forecast: saving %s: %w", s.Name(), err)
	}
	return nil
}

// Load restores a model saved by Save, overwriting the receiver's
// period and residual history.
func (s *SeasonalNaive) Load(r io.Reader) error {
	var st seasonalNaiveState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("forecast: loading seasonal-naive: %w", err)
	}
	if st.Period <= 0 {
		return fmt.Errorf("forecast: seasonal-naive snapshot has non-positive period %d", st.Period)
	}
	s.Period, s.MaxResiduals, s.residuals = st.Period, st.MaxResiduals, st.Residuals
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
// snapshot on the same stream. Every member must implement Snapshotter.
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
	for _, m := range e.Members {
		if err := m.(Snapshotter).Save(w); err != nil {
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
		if err := s.Load(r); err != nil {
			return fmt.Errorf("forecast: loading ensemble member %d: %w", i, err)
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
