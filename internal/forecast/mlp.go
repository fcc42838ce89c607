package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"robustscale/internal/dist"
	"robustscale/internal/nn"
	"robustscale/internal/timeseries"
)

// MLPConfig configures the feed-forward probabilistic forecaster.
type MLPConfig struct {
	// Context is the input window length T.
	Context int
	// Hidden is the width of the two hidden layers.
	Hidden int
	// Epochs is the number of passes over the training windows.
	Epochs int
	// LR is the Adam learning rate; the paper fixes 1e-3.
	LR float64
	// Seed makes initialization and shuffling deterministic.
	Seed int64
	// MaxWindows bounds the number of training windows per epoch.
	MaxWindows int
}

// MLP is a feed-forward probabilistic forecaster that outputs the mean and
// (softplus-mapped) standard deviation of a Gaussian per horizon step —
// the textbook "learn parametric distributions" design of Section III-B.
type MLP struct {
	cfg MLPConfig

	horizon int
	scaler  timeseries.StandardScaler
	l1, l2  *nn.Dense
	head    *nn.Dense
	params  nn.Params
	fitted  bool
}

// NewMLP returns an untrained MLP forecaster. Zero fields take the
// paper's setup: a 12-hour (72-step) context, 48 hidden units, 30 epochs
// at LR 1e-3 over at most 256 windows.
func NewMLP(cfg MLPConfig) *MLP {
	if cfg.Context <= 0 {
		cfg.Context = 72
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 48
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = 256
	}
	return &MLP{cfg: cfg}
}

// Name implements Forecaster.
func (m *MLP) Name() string { return "mlp" }

// FitHorizon trains the network for a specific forecast horizon.
func (m *MLP) FitHorizon(train *timeseries.Series, h int) error {
	if h <= 0 {
		return fmt.Errorf("forecast: mlp needs a positive horizon, got %d", h)
	}
	m.build(h)
	defer m.params.ReleaseGrads() // a fitted model keeps only its weights
	m.scaler.Fit(train.Values)
	windows, err := trainingWindows(train, m.cfg.Context, h, m.cfg.MaxWindows)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(m.cfg.Seed + 1)) // shuffle stream, distinct from init
	opt := nn.NewAdam(m.cfg.LR)
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
				mu := out[t]
				sigmaRaw := out[h+t]
				sigma := dist.Softplus(sigmaRaw) + 1e-4
				z := (target[t] - mu) / sigma
				// d NLL / d mu and d NLL / d sigmaRaw.
				dOut[t] = -z / sigma
				dSigma := 1/sigma - z*z/sigma
				dOut[h+t] = dSigma * dist.SoftplusDeriv(sigmaRaw)
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
func (m *MLP) Fit(train *timeseries.Series) error { return m.FitHorizon(train, 72) }

// build constructs the network architecture for the given horizon.
func (m *MLP) build(h int) {
	m.horizon = h
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	in := m.cfg.Context + timeFeatureDim
	m.l1 = nn.NewDense("mlp.l1", in, m.cfg.Hidden, rng)
	m.l2 = nn.NewDense("mlp.l2", m.cfg.Hidden, m.cfg.Hidden, rng)
	m.head = nn.NewDense("mlp.head", m.cfg.Hidden, 2*h, rng)
	m.params = append(append(m.l1.Params(), m.l2.Params()...), m.head.Params()...)
}

type mlpCaches struct {
	c1, c2, ch *nn.DenseCache
	a1, a2     *nn.ActCache
}

func (m *MLP) forward(x []float64) ([]float64, *mlpCaches) {
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

func (m *MLP) backward(caches *mlpCaches, dOut []float64) {
	d := m.head.Backward(caches.ch, dOut)
	d = nn.Tanh.Backward(caches.a2, d)
	d = m.l2.Backward(caches.c2, d)
	d = nn.Tanh.Backward(caches.a1, d)
	m.l1.Backward(caches.c1, d)
}

// input assembles the normalized context plus the calendar features of the
// forecast origin timestamp.
func (m *MLP) input(context []float64, origin time.Time) []float64 {
	x := make([]float64, 0, m.cfg.Context+timeFeatureDim)
	x = append(x, m.scaler.Transform(context)...)
	x = append(x, timeFeatures(origin)...)
	return x
}

// Predict implements Forecaster: the Gaussian mean per step.
func (m *MLP) Predict(history *timeseries.Series, h int) ([]float64, error) {
	return medianMean(m.PredictQuantiles(history, h, []float64{0.5}))
}

// PredictQuantiles implements QuantileForecaster from the per-step Gaussian
// heads.
func (m *MLP) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if h > m.horizon {
		return nil, fmt.Errorf("forecast: mlp trained for horizon %d, requested %d", m.horizon, h)
	}
	levels, err := normalizeLevels(levels)
	if err != nil {
		return nil, err
	}
	context, err := contextTail(history, m.cfg.Context)
	if err != nil {
		return nil, err
	}
	origin := history.TimeAt(history.Len())
	out, _ := m.forward(m.input(context, origin))

	f := &QuantileForecast{
		Levels: levels,
		Values: make([][]float64, h),
		Mean:   make([]float64, h),
	}
	for t := 0; t < h; t++ {
		mu := out[t]
		sigma := dist.Softplus(out[m.horizon+t]) + 1e-4
		f.Mean[t] = m.scaler.InverseOne(mu)
		row := make([]float64, len(levels))
		for i, tau := range levels {
			z := mu + sigma*quantileZ(tau)
			row[i] = m.scaler.InverseOne(z)
		}
		f.Values[t] = row
	}
	return f, nil
}

// quantileZ is the standard normal quantile.
func quantileZ(tau float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*tau-1)
}

var _ QuantileForecaster = (*MLP)(nil)
