package forecast

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"robustscale/internal/nn"
	"robustscale/internal/timeseries"
	"robustscale/internal/wire"
)

// Snapshotter is the persistence contract of a checkpointable
// forecaster: Save writes the fitted state, Load restores it into a
// receiver constructed with the same configuration. Every forecaster a
// strategy can be built on implements it, so the control plane can warm
// start from a checkpoint without retraining any of them. Each writes one
// blob in the wire codec (layouts in DESIGN.md §8): its configuration and
// normalization statistics, then its weights, which Load validates by
// name and shape.
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

// Save writes the fitted model.
func (a *ARIMA) Save(w io.Writer) error {
	if !a.fitted {
		return ErrNotFitted
	}
	b := wire.AppendVarints(wire.Scratch(w), int64(a.P), int64(a.D), int64(a.Q), int64(a.SeasonalPeriod))
	b = wire.AppendFloats(wire.AppendFloats(b, a.phi), a.theta)
	if _, err := w.Write(wire.AppendFloat(wire.AppendFloat(b, a.constant), a.sigma2)); err != nil {
		return fmt.Errorf("forecast: saving %s: %w", a.Name(), err)
	}
	return nil
}

// Load restores a model saved by Save, overwriting the receiver's order.
func (a *ARIMA) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	p, d, q, period := rd.Int(), rd.Int(), rd.Int(), rd.Int()
	phi, theta, constant, sigma2 := rd.Floats(), rd.Floats(), rd.Float(), rd.Float()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("forecast: loading arima: %w", err)
	}
	if p != len(phi) || q != len(theta) || d < 0 || period < 0 {
		return fmt.Errorf("forecast: arima snapshot of order (%d,%d,%d), period %d, holds %d AR and %d MA coefficients",
			p, d, q, period, len(phi), len(theta))
	}
	a.P, a.D, a.Q, a.SeasonalPeriod = p, d, q, period
	a.phi, a.theta, a.constant, a.sigma2 = phi, theta, constant, sigma2
	a.warm = arimaWarm{} // restored weights invalidate any cached warm state
	a.fitted = true
	return nil
}

// saveNeural writes the blob the four neural models share: kind, the
// horizon and quantile grid their head was built for (zero and none when
// their config fixes it), the normalization statistics, then the
// parameters.
func saveNeural(w io.Writer, fitted bool, kind string, horizon int, levels []float64,
	sc timeseries.StandardScaler, ps nn.Params) error {
	if !fitted {
		return ErrNotFitted
	}
	b := wire.AppendVarints(wire.AppendSection(wire.Scratch(w), kind), int64(horizon))
	b = wire.AppendFloats(wire.AppendFloat(wire.AppendFloat(b, sc.Mean), sc.Std), levels)
	if _, err := w.Write(ps.Append(b)); err != nil {
		return fmt.Errorf("forecast: saving %s: %w", kind, err)
	}
	return nil
}

// loadNeural reads a blob saveNeural wrote for kind into a receiver
// whose scaler and fitted flag it is handed. build shapes the receiver's
// network for the saved horizon (at least minHorizon) and grid and
// returns its parameters, which the rest of the blob is read into. A
// horizon is believed only as far as the bytes behind it go: the head has
// a value per step and level.
func loadNeural(r io.Reader, kind string, minHorizon int, sc *timeseries.StandardScaler, fitted *bool,
	build func(horizon int, levels []float64) (nn.Params, error)) error {
	rd := wire.ReadFrom(r)
	got, horizon := string(rd.Section()), rd.Int()
	saved := timeseries.StandardScaler{Mean: rd.Float(), Std: rd.Float()}
	levels := rd.Floats()
	switch maxHorizon := rd.Len() / 8 / max(1, len(levels)); {
	case rd.Err() != nil:
		return fmt.Errorf("forecast: loading %s: %w", kind, rd.Err())
	case got != kind:
		return fmt.Errorf("forecast: snapshot is %q, not %s", got, kind)
	case horizon < minHorizon || horizon > maxHorizon:
		return fmt.Errorf("forecast: %s snapshot has horizon %d, outside [%d, %d] for %d levels in %d parameter bytes",
			kind, horizon, minHorizon, maxHorizon, len(levels), rd.Len())
	}
	ps, err := build(horizon, levels)
	if err == nil {
		err = ps.Read(&rd)
	}
	if err == nil {
		*sc, *fitted = saved, true
	}
	return err
}

// Save writes the trained network and normalization statistics.
func (m *MLP) Save(w io.Writer) error {
	return saveNeural(w, m.fitted, "mlp", m.horizon, nil, m.scaler, m.params)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same MLPConfig.
func (m *MLP) Load(r io.Reader) error {
	return loadNeural(r, "mlp", 1, &m.scaler, &m.fitted, func(h int, _ []float64) (nn.Params, error) {
		m.build(h)
		return m.params, nil
	})
}

// Save writes the trained network, grid, and normalization statistics.
func (m *QuantileMLP) Save(w io.Writer) error {
	return saveNeural(w, m.fitted, "mlp-quantile", m.horizon, m.Levels, m.scaler, m.params)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same MLPConfig; the quantile grid is taken from
// the snapshot (it determines the head width).
func (m *QuantileMLP) Load(r io.Reader) error {
	return loadNeural(r, "mlp-quantile", 1, &m.scaler, &m.fitted, func(h int, levels []float64) (nn.Params, error) {
		levels, err := normalizeLevels(levels)
		if err != nil {
			return nil, err
		}
		// The grid must be set before build: the head emits h*len(Levels)
		// outputs.
		m.Levels = levels
		m.build(h)
		return m.params, nil
	})
}

// Save writes the trained network and normalization statistics.
func (d *DeepAR) Save(w io.Writer) error {
	return saveNeural(w, d.fitted, "deepar", 0, nil, d.scaler, d.params)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same DeepARConfig.
func (d *DeepAR) Load(r io.Reader) error {
	return loadNeural(r, "deepar", 0, &d.scaler, &d.fitted, func(int, []float64) (nn.Params, error) {
		d.build()
		d.warm = deeparWarm{} // restored weights invalidate any cached recurrent state
		return d.params, nil
	})
}

// Save writes the trained network and normalization statistics.
func (m *TFT) Save(w io.Writer) error {
	return saveNeural(w, m.fitted, "tft", 0, nil, m.scaler, m.params)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same TFTConfig (including the quantile grid).
func (m *TFT) Load(r io.Reader) error {
	return loadNeural(r, "tft", 0, &m.scaler, &m.fitted, func(int, []float64) (nn.Params, error) {
		err := m.build()
		return m.params, err
	})
}

// Save writes all three ensemble components: the normalization
// statistics, the linear coefficients, the kernel memory, then the LSTM's
// parameters.
func (q *QB5000) Save(w io.Writer) error {
	if !q.fitted {
		return ErrNotFitted
	}
	b := wire.AppendFloat(wire.AppendFloat(wire.Scratch(w), q.scaler.Mean), q.scaler.Std)
	b = wire.AppendRows(wire.AppendRows(wire.AppendRows(b, q.linCoef), q.kernelX), q.kernelY)
	if _, err := w.Write(q.params.Append(b)); err != nil {
		return fmt.Errorf("forecast: saving qb5000: %w", err)
	}
	return nil
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same QB5000Config: a blob whose components do not
// have the shapes that config gives them is refused, and a refused blob
// leaves the receiver as it was.
func (q *QB5000) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	sc := timeseries.StandardScaler{Mean: rd.Float(), Std: rd.Float()}
	rows := func() [][]float64 { return wire.List(&rd, 1, rd.Floats) }
	linCoef, kernelX, kernelY := rows(), rows(), rows()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("forecast: loading qb5000: %w", err)
	}
	if err := q.checkShapes(linCoef, kernelX, kernelY); err != nil {
		return fmt.Errorf("forecast: loading qb5000: %w", err)
	}
	lstm := &QB5000{cfg: q.cfg}
	lstm.buildLSTM()
	if err := lstm.params.Read(&rd); err != nil {
		return err
	}
	q.warm = qb5000Warm{} // restored weights invalidate any cached recurrent state
	q.cell, q.head, q.params = lstm.cell, lstm.head, lstm.params
	q.scaler, q.linCoef, q.kernelX, q.kernelY = sc, linCoef, kernelX, kernelY
	q.fitted = true
	return nil
}

// checkShapes checks the ensemble's fitted components against the config
// Predict reads them with: one linear row of 1+Context coefficients per
// trained horizon step, kernel keys of Context values, and one kernel
// target of TrainHorizon values per key.
func (q *QB5000) checkShapes(linCoef, kernelX, kernelY [][]float64) error {
	if len(linCoef) != q.cfg.TrainHorizon {
		return fmt.Errorf("%d linear rows for a %d-step horizon", len(linCoef), q.cfg.TrainHorizon)
	}
	if len(kernelY) != len(kernelX) {
		return fmt.Errorf("%d kernel targets for %d kernel keys", len(kernelY), len(kernelX))
	}
	for _, c := range []struct {
		what  string
		rows  [][]float64
		width int
	}{
		{"linear row", linCoef, 1 + q.cfg.Context},
		{"kernel key", kernelX, q.cfg.Context},
		{"kernel target", kernelY, q.cfg.TrainHorizon},
	} {
		for i, row := range c.rows {
			if len(row) != c.width {
				return fmt.Errorf("%s %d holds %d values, want %d", c.what, i, len(row), c.width)
			}
		}
	}
	return nil
}

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
	for k, row := range residuals {
		if err := checkResiduals(row); err != nil {
			return fmt.Errorf("forecast: naive snapshot step %d: %w", k+1, err)
		}
	}
	n.horizon, n.MaxResiduals, n.residuals = len(residuals), maxResiduals, residuals
	n.warm = offsetWarm{} // restored residuals invalidate cached offsets
	n.fitted = true
	return nil
}

// checkResiduals refuses a residual row that Fit cannot have written and
// PredictQuantiles cannot read: empty, unsorted or non-finite.
func checkResiduals(row []float64) error {
	if len(row) == 0 {
		return fmt.Errorf("no residuals")
	}
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("residual %d is %v", i, v)
		}
		if i > 0 && v < row[i-1] {
			return fmt.Errorf("residuals unsorted at %d", i)
		}
	}
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
	if err := checkResiduals(residuals); err != nil {
		return fmt.Errorf("forecast: seasonal-naive snapshot: %w", err)
	}
	s.Period, s.MaxResiduals, s.residuals = period, maxResiduals, residuals
	s.warm = offsetWarm{} // restored residuals invalidate cached offsets
	s.fitted = true
	return nil
}
