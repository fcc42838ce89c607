package forecast

import (
	"fmt"
	"math/rand"
	"time"

	"robustscale/internal/nn"
	"robustscale/internal/timeseries"
)

// QuantileMLP is the feed-forward counterpart of TFT's output design: the
// same two-hidden-layer network as MLP, but its head directly emits a
// pre-specified grid of quantiles per horizon step and is trained on the
// summed pinball loss. Section III-B notes that an MLP "can be trained to
// output distribution parameters or predict specific quantiles"; MLP
// implements the former, this type the latter.
type QuantileMLP struct {
	cfg MLPConfig
	// Levels is the trained quantile grid; defaults to DefaultLevels.
	Levels []float64

	horizon int
	scaler  timeseries.StandardScaler
	l1, l2  *nn.Dense
	head    *nn.Dense
	params  nn.Params
	fitted  bool
}

// NewQuantileMLP returns an untrained pinball-loss MLP.
func NewQuantileMLP(cfg MLPConfig, levels []float64) *QuantileMLP {
	base := NewMLP(cfg)
	m := &QuantileMLP{cfg: base.cfg, Levels: levels}
	if len(m.Levels) == 0 {
		m.Levels = append([]float64{}, DefaultLevels...)
	}
	return m
}

// Name implements Forecaster.
func (m *QuantileMLP) Name() string { return "mlp-quantile" }

// build constructs the network for the given horizon.
func (m *QuantileMLP) build(h int) {
	m.horizon = h
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	in := m.cfg.Context + timeFeatureDim
	m.l1 = nn.NewDense("mlpq.l1", in, m.cfg.Hidden, rng)
	m.l2 = nn.NewDense("mlpq.l2", m.cfg.Hidden, m.cfg.Hidden, rng)
	m.head = nn.NewDense("mlpq.head", m.cfg.Hidden, h*len(m.Levels), rng)
	m.params = append(append(m.l1.Params(), m.l2.Params()...), m.head.Params()...)
}

// FitHorizon trains the network for a specific forecast horizon.
func (m *QuantileMLP) FitHorizon(train *timeseries.Series, h int) error {
	if h <= 0 {
		return fmt.Errorf("forecast: quantile mlp needs a positive horizon, got %d", h)
	}
	levels, err := normalizeLevels(m.Levels)
	if err != nil {
		return err
	}
	m.Levels = levels
	m.build(h)
	defer m.params.ReleaseGrads() // a fitted model keeps only its weights
	m.scaler.Fit(train.Values)

	windows, err := trainingWindows(train, m.cfg.Context, h, m.cfg.MaxWindows)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 1))
	opt := nn.NewAdam(m.cfg.LR)
	nl := len(levels)
	order := rng.Perm(len(windows))
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, wi := range order {
			w := windows[wi]
			x := m.input(w.Context, train.TimeAt(w.Origin))
			target := m.scaler.Transform(w.Target)

			m.params.ZeroGrads()
			out, caches := m.forward(x)
			dOut := make([]float64, len(out))
			for t := 0; t < h; t++ {
				for i, tau := range levels {
					dOut[t*nl+i] = PinballGrad(tau, target[t], out[t*nl+i])
				}
			}
			m.backward(caches, dOut)
			m.params.ClipGradNorm(5)
			opt.Step(m.params)
		}
	}
	m.fitted = true
	return nil
}

// Fit implements Forecaster with the paper's default 72-step horizon.
func (m *QuantileMLP) Fit(train *timeseries.Series) error { return m.FitHorizon(train, 72) }

func (m *QuantileMLP) input(context []float64, origin time.Time) []float64 {
	x := make([]float64, 0, m.cfg.Context+timeFeatureDim)
	x = append(x, m.scaler.Transform(context)...)
	x = append(x, timeFeatures(origin)...)
	return x
}

func (m *QuantileMLP) forward(x []float64) ([]float64, *mlpCaches) {
	caches := &mlpCaches{}
	var h1, h2 []float64
	h1, caches.c1 = m.l1.Forward(x)
	h1, caches.a1 = nn.Tanh.Forward(h1)
	h2, caches.c2 = m.l2.Forward(h1)
	h2, caches.a2 = nn.Tanh.Forward(h2)
	out, ch := m.head.Forward(h2)
	caches.ch = ch
	return out, caches
}

func (m *QuantileMLP) backward(caches *mlpCaches, dOut []float64) {
	d := m.head.Backward(caches.ch, dOut)
	d = nn.Tanh.Backward(caches.a2, d)
	d = m.l2.Backward(caches.c2, d)
	d = nn.Tanh.Backward(caches.a1, d)
	m.l1.Backward(caches.c1, d)
}

// Predict implements Forecaster via the trained median.
func (m *QuantileMLP) Predict(history *timeseries.Series, h int) ([]float64, error) {
	f, err := m.predictGrid(history, h)
	if err != nil {
		return nil, err
	}
	return f.Mean, nil
}

// predictGrid runs one forward pass and denormalizes the trained grid.
func (m *QuantileMLP) predictGrid(history *timeseries.Series, h int) (*QuantileForecast, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 || h > m.horizon {
		return nil, fmt.Errorf("forecast: quantile mlp trained for horizon %d, requested %d", m.horizon, h)
	}
	context, err := contextTail(history, m.cfg.Context)
	if err != nil {
		return nil, err
	}
	out, _ := m.forward(m.input(context, history.TimeAt(history.Len())))
	nl := len(m.Levels)
	f := &QuantileForecast{
		Levels: m.Levels,
		Values: make([][]float64, h),
		Mean:   make([]float64, h),
	}
	for t := 0; t < h; t++ {
		row := make([]float64, nl)
		for i := 0; i < nl; i++ {
			row[i] = m.scaler.InverseOne(out[t*nl+i])
		}
		f.Values[t] = row
	}
	f.Enforce()
	for t := 0; t < h; t++ {
		f.Mean[t] = f.At(t, 0.5)
	}
	return f, nil
}

// PredictQuantiles implements QuantileForecaster: trained grid levels with
// interpolation in between, clamped outside (the pre-specified-grid
// limitation, as for TFT).
func (m *QuantileMLP) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	levels, err := normalizeLevels(levels)
	if err != nil {
		return nil, err
	}
	grid, err := m.predictGrid(history, h)
	if err != nil {
		return nil, err
	}
	out := &QuantileForecast{
		Levels: levels,
		Values: make([][]float64, h),
		Mean:   grid.Mean,
	}
	for t := 0; t < h; t++ {
		row := make([]float64, len(levels))
		for i, tau := range levels {
			row[i] = grid.At(t, tau)
		}
		out.Values[t] = row
	}
	return out, nil
}

var _ QuantileForecaster = (*QuantileMLP)(nil)
