package forecast

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"robustscale/internal/timeseries"
)

// Trained models can be persisted and restored so a production control
// plane does not retrain on every restart. Each model writes a small gob
// envelope (its configuration and normalization statistics) followed by
// its parameters; Load reconstructs the architecture from the envelope
// and then restores the weights, validating names and shapes.

// arimaState is the gob image of a fitted ARIMA model.
type arimaState struct {
	P, D, Q        int
	SeasonalPeriod int
	Phi, Theta     []float64
	Constant       float64
	Sigma2         float64
}

// Save writes the fitted model.
func (a *ARIMA) Save(w io.Writer) error {
	if !a.fitted {
		return ErrNotFitted
	}
	st := arimaState{
		P: a.P, D: a.D, Q: a.Q, SeasonalPeriod: a.SeasonalPeriod,
		Phi: a.phi, Theta: a.theta, Constant: a.constant, Sigma2: a.sigma2,
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("forecast: saving %s: %w", a.Name(), err)
	}
	return nil
}

// Load restores a model saved by Save, overwriting the receiver's order.
func (a *ARIMA) Load(r io.Reader) error {
	var st arimaState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("forecast: loading arima: %w", err)
	}
	a.P, a.D, a.Q, a.SeasonalPeriod = st.P, st.D, st.Q, st.SeasonalPeriod
	a.phi, a.theta, a.constant, a.sigma2 = st.Phi, st.Theta, st.Constant, st.Sigma2
	a.WarmReset() // restored weights invalidate any cached warm state
	a.fitted = true
	return nil
}

// neuralEnvelope is the shared gob header of the neural models.
type neuralEnvelope struct {
	Kind    string
	Horizon int
	Mean    float64
	Std     float64
}

// byteReader makes r safe to hand to several gob decoders in turn, which
// is how every Load here reads its envelope and then its parameters: a
// decoder reads ahead (and loses what it buffered) unless its source is
// an io.ByteReader, so anything else — a file, a pipe — is buffered once
// here.
func byteReader(r io.Reader) io.Reader {
	if _, ok := r.(io.ByteReader); ok {
		return r
	}
	return bufio.NewReader(r)
}

// Save writes the trained network and normalization statistics.
func (m *MLP) Save(w io.Writer) error {
	if !m.fitted {
		return ErrNotFitted
	}
	env := neuralEnvelope{Kind: "mlp", Horizon: m.horizon, Mean: m.scaler.Mean, Std: m.scaler.Std}
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("forecast: saving mlp: %w", err)
	}
	return m.params.Save(w)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same MLPConfig.
func (m *MLP) Load(r io.Reader) error {
	r = byteReader(r)
	var env neuralEnvelope
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("forecast: loading mlp: %w", err)
	}
	if env.Kind != "mlp" {
		return fmt.Errorf("forecast: snapshot is %q, not mlp", env.Kind)
	}
	m.build(env.Horizon)
	m.horizon = env.Horizon
	m.scaler = timeseries.StandardScaler{Mean: env.Mean, Std: env.Std}
	if err := m.params.Load(r); err != nil {
		return err
	}
	m.fitted = true
	return nil
}

// Save writes the trained network and normalization statistics.
func (d *DeepAR) Save(w io.Writer) error {
	if !d.fitted {
		return ErrNotFitted
	}
	env := neuralEnvelope{Kind: "deepar", Mean: d.scaler.Mean, Std: d.scaler.Std}
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("forecast: saving deepar: %w", err)
	}
	return d.params.Save(w)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same DeepARConfig.
func (d *DeepAR) Load(r io.Reader) error {
	r = byteReader(r)
	var env neuralEnvelope
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("forecast: loading deepar: %w", err)
	}
	if env.Kind != "deepar" {
		return fmt.Errorf("forecast: snapshot is %q, not deepar", env.Kind)
	}
	d.build()
	d.WarmReset() // restored weights invalidate any cached recurrent state
	d.scaler = timeseries.StandardScaler{Mean: env.Mean, Std: env.Std}
	if err := d.params.Load(r); err != nil {
		return err
	}
	d.fitted = true
	return nil
}

// Save writes the trained network and normalization statistics.
func (m *TFT) Save(w io.Writer) error {
	if !m.fitted {
		return ErrNotFitted
	}
	env := neuralEnvelope{Kind: "tft", Mean: m.scaler.Mean, Std: m.scaler.Std}
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("forecast: saving tft: %w", err)
	}
	return m.params.Save(w)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same TFTConfig (including the quantile grid).
func (m *TFT) Load(r io.Reader) error {
	r = byteReader(r)
	var env neuralEnvelope
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("forecast: loading tft: %w", err)
	}
	if env.Kind != "tft" {
		return fmt.Errorf("forecast: snapshot is %q, not tft", env.Kind)
	}
	if err := m.build(); err != nil {
		return err
	}
	m.scaler = timeseries.StandardScaler{Mean: env.Mean, Std: env.Std}
	if err := m.params.Load(r); err != nil {
		return err
	}
	m.fitted = true
	return nil
}

// qb5000State is the gob image of the non-neural QB5000 components.
type qb5000State struct {
	Mean, Std float64
	LinCoef   [][]float64
	KernelX   [][]float64
	KernelY   [][]float64
}

// Save writes all three ensemble components.
func (q *QB5000) Save(w io.Writer) error {
	if !q.fitted {
		return ErrNotFitted
	}
	st := qb5000State{
		Mean: q.scaler.Mean, Std: q.scaler.Std,
		LinCoef: q.linCoef, KernelX: q.kernelX, KernelY: q.kernelY,
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("forecast: saving qb5000: %w", err)
	}
	return q.params.Save(w)
}

// Load restores a model saved by Save. The receiver must have been
// constructed with the same QB5000Config.
func (q *QB5000) Load(r io.Reader) error {
	r = byteReader(r)
	var st qb5000State
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("forecast: loading qb5000: %w", err)
	}
	q.scaler = timeseries.StandardScaler{Mean: st.Mean, Std: st.Std}
	q.linCoef, q.kernelX, q.kernelY = st.LinCoef, st.KernelX, st.KernelY
	q.WarmReset() // restored weights invalidate any cached recurrent state
	q.buildLSTM()
	if err := q.params.Load(r); err != nil {
		return err
	}
	q.fitted = true
	return nil
}
