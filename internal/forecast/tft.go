package forecast

import (
	"fmt"
	"math/rand"
	"sync"

	"robustscale/internal/nn"
	"robustscale/internal/obs"
	"robustscale/internal/timeseries"
)

// TFTConfig configures the Temporal Fusion Transformer style forecaster.
type TFTConfig struct {
	// Context is the encoder window length T.
	Context int
	// Hidden is the shared embedding / LSTM / attention width.
	Hidden int
	// Epochs is the number of passes over the training windows.
	Epochs int
	// LR is the Adam learning rate; the paper fixes 1e-3.
	LR float64
	// Seed makes initialization and shuffling deterministic.
	Seed int64
	// MaxWindows bounds the number of training windows per epoch.
	MaxWindows int
	// Levels is the pre-specified quantile grid the network outputs; this
	// is fixed at training time, so changing levels requires retraining
	// (the trade-off Section III-B discusses).
	Levels []float64
	// TrainHorizon is the decoder length.
	TrainHorizon int
	// Workers is read by nothing: the TFT trains and predicts on the
	// caller's goroutine. It stays only because the bench harness sets it.
	Workers int
}

// DefaultTFTConfig mirrors the paper's setup: 72-step context and the
// Table I quantile grid.
func DefaultTFTConfig() TFTConfig {
	return TFTConfig{
		Context: 72, Hidden: 32, Epochs: 12, LR: 1e-3, Seed: 1,
		MaxWindows: 192, Levels: append([]float64{}, DefaultLevels...),
		TrainHorizon: 72,
	}
}

// TFT is a simplified Temporal Fusion Transformer: an LSTM encoder over
// the observed past, an LSTM decoder over known future covariates, causal
// interpretable self-attention across the full sequence with a residual
// connection, and linear heads that emit a pre-specified grid of quantiles
// trained jointly on the pinball loss (Equation 2). Quantiles come out in
// one forward pass, which is why TFT inference is fast in Tables II/III.
type TFT struct {
	cfg TFTConfig

	scaler timeseries.StandardScaler
	tftNet
	fitted bool

	arenas arenaList // predict-time scratch arenas, reused across calls
}

// arenaList is a free list of scratch arenas shared by concurrent predict
// callers: each call takes one for its forward pass and puts it back, so
// the list never holds more than the peak number of concurrent callers.
// It is a plain list, not a sync.Pool: the GC empties a Pool, and a round
// that re-grows its arena after a collection makes the per-round malloc
// count drift from run to run.
type arenaList struct {
	mu   sync.Mutex
	free []*nn.Scratch
}

// take returns an empty arena, a new one when the list has none.
func (l *arenaList) take() *nn.Scratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nn.NewScratch()
	}
	s := l.free[n-1]
	l.free = l.free[:n-1]
	return s
}

// put resets an arena and hands it back; nothing drawn from it may be used
// afterwards.
func (l *arenaList) put(s *nn.Scratch) {
	s.Reset() // outside the lock: the caller still owns the arena here
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}

// tftNet bundles the network layers; params lists them in build order,
// which is the order a saved model stores them in.
type tftNet struct {
	hidden   int
	embPast  *nn.Dense
	embFut   *nn.Dense
	enc, dec *nn.LSTMCell
	attn     *nn.Attention
	head     *nn.Dense
	params   nn.Params
}

// NewTFT returns an untrained TFT forecaster.
func NewTFT(cfg TFTConfig) *TFT {
	def := DefaultTFTConfig()
	if cfg.Context <= 0 {
		cfg.Context = def.Context
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = def.Hidden
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = def.Epochs
	}
	if cfg.LR <= 0 {
		cfg.LR = def.LR
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = def.MaxWindows
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = append([]float64{}, def.Levels...)
	}
	if cfg.TrainHorizon <= 0 {
		cfg.TrainHorizon = def.TrainHorizon
	}
	return &TFT{cfg: cfg}
}

// NewTFTPoint returns a TFT trained to output only the 0.5 quantile,
// serving as the paper's TFT-point forecasting baseline.
func NewTFTPoint(cfg TFTConfig) *TFT {
	cfg.Levels = []float64{0.5}
	t := NewTFT(cfg)
	return t
}

// Name implements Forecaster.
func (m *TFT) Name() string {
	if len(m.cfg.Levels) == 1 {
		return "tft-point"
	}
	return "tft"
}

// Levels returns the trained quantile grid.
func (m *TFT) Levels() []float64 { return m.cfg.Levels }

const tftPastDim = 1 + timeFeatureDim

// build constructs the network architecture from the configuration.
func (m *TFT) build() error {
	levels, err := normalizeLevels(m.cfg.Levels)
	if err != nil {
		return err
	}
	m.cfg.Levels = levels
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	h := m.cfg.Hidden
	m.hidden = h
	m.embPast = nn.NewDense("tft.embPast", tftPastDim, h, rng)
	m.embFut = nn.NewDense("tft.embFut", timeFeatureDim, h, rng)
	m.enc = nn.NewLSTMCell("tft.enc", h, h, rng)
	m.dec = nn.NewLSTMCell("tft.dec", h, h, rng)
	m.attn = nn.NewAttention("tft.attn", h, true, rng)
	m.head = nn.NewDense("tft.head", h, len(levels), rng)
	m.params = nil
	for _, ps := range []nn.Params{m.embPast.Params(), m.embFut.Params(), m.enc.Params(),
		m.dec.Params(), m.attn.Params(), m.head.Params()} {
		m.params = append(m.params, ps...)
	}
	return nil
}

// Fit trains the network on the series, one Adam step per window on the
// pinball loss of every trained level.
func (m *TFT) Fit(train *timeseries.Series) error {
	if err := m.build(); err != nil {
		return err
	}
	m.scaler.Fit(train.Values)
	windows, err := trainingWindows(train, m.cfg.Context, m.cfg.TrainHorizon, m.cfg.MaxWindows)
	if err != nil {
		return err
	}

	s := nn.NewScratch()
	rng := rand.New(rand.NewSource(m.cfg.Seed + 1)) // shuffle stream, distinct from init
	opt := nn.NewAdam(m.cfg.LR)
	order := rng.Perm(len(windows))
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		spe := obs.DefaultTracer.Start("tft.epoch")
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, wi := range order {
			m.windowGrad(s, train, windows[wi])
			m.params.ClipGradNorm(5)
			opt.Step(m.params)
		}
		spe.End()
		obsTFTEpochs.Inc()
	}
	m.fitted = true
	return nil
}

// tftForward holds the full forward activation record for one sequence.
type tftForward struct {
	T, H       int
	pastCaches []*nn.DenseCache
	futCaches  []*nn.DenseCache
	encCaches  []*nn.LSTMCache
	decCaches  []*nn.LSTMCache
	attnCache  *nn.AttnCache
	headCaches []*nn.DenseCache
	outs       [][]float64 // [step][level] normalized quantile outputs
}

// forward runs encoder, decoder, attention and heads. contextNorm has T
// normalized observations; startIdx is the absolute index of contextNorm[0]
// within the series that provides the calendar. Vectors are drawn from s
// (nil falls back to the heap); the attention block keeps its own matrix
// allocations.
func (n *tftNet) forward(s *nn.Scratch, series *timeseries.Series, contextNorm []float64, startIdx, horizon int) *tftForward {
	T := len(contextNorm)
	H := horizon
	f := &tftForward{
		T: T, H: H,
		pastCaches: make([]*nn.DenseCache, T),
		futCaches:  make([]*nn.DenseCache, H),
		headCaches: make([]*nn.DenseCache, H),
		outs:       make([][]float64, H),
	}

	embPast := make([][]float64, T)
	for t := 0; t < T; t++ {
		x := s.Vec(tftPastDim)
		x[0] = contextNorm[t]
		timeFeaturesInto(x[1:], series.TimeAt(startIdx+t))
		embPast[t], f.pastCaches[t] = n.embPast.ForwardScratch(s, x)
	}
	var hsE [][]float64
	var finalE nn.LSTMState
	hsE, finalE, f.encCaches = n.enc.RunSequenceScratch(s, embPast, n.enc.NewLSTMStateScratch(s))

	embFut := make([][]float64, H)
	for k := 0; k < H; k++ {
		feats := s.Vec(timeFeatureDim)
		timeFeaturesInto(feats, series.TimeAt(startIdx+T+k))
		embFut[k], f.futCaches[k] = n.embFut.ForwardScratch(s, feats)
	}
	var hsD [][]float64
	hsD, _, f.decCaches = n.dec.RunSequenceScratch(s, embFut, finalE)

	x := nn.NewMat(T+H, n.hidden)
	for t := 0; t < T; t++ {
		copy(x.Row(t), hsE[t])
	}
	for k := 0; k < H; k++ {
		copy(x.Row(T+k), hsD[k])
	}
	var attnOut nn.Mat
	attnOut, f.attnCache = n.attn.Forward(x)

	for k := 0; k < H; k++ {
		z := s.Vec(n.hidden)
		arow := attnOut.Row(T + k)
		for j := range z {
			z[j] = arow[j] + hsD[k][j] // residual connection
		}
		f.outs[k], f.headCaches[k] = n.head.ForwardScratch(s, z)
	}
	return f
}

// backward propagates per-step, per-level output gradients through the
// whole network, accumulating parameter gradients.
func (n *tftNet) backward(s *nn.Scratch, f *tftForward, dOuts [][]float64) {
	T, H := f.T, f.H
	dA := nn.NewMat(T+H, n.hidden)
	dhsD := make([][]float64, H)
	for k := 0; k < H; k++ {
		dz := n.head.BackwardScratch(s, f.headCaches[k], dOuts[k])
		copy(dA.Row(T+k), dz)
		dhsD[k] = s.VecCopy(dz) // residual path
	}

	dX := n.attn.Backward(f.attnCache, dA)
	dhsE := make([][]float64, T)
	for t := 0; t < T; t++ {
		dhsE[t] = s.VecCopy(dX.Row(t))
	}
	for k := 0; k < H; k++ {
		row := dX.Row(T + k)
		for j := range dhsD[k] {
			dhsD[k][j] += row[j]
		}
	}

	dEmbFut, dS0dec := n.dec.BackwardSequenceScratch(s, f.decCaches, dhsD, nn.LSTMState{})
	for k := 0; k < H; k++ {
		n.embFut.BackwardScratch(s, f.futCaches[k], dEmbFut[k])
	}
	dEmbPast, _ := n.enc.BackwardSequenceScratch(s, f.encCaches, dhsE, dS0dec)
	for t := 0; t < T; t++ {
		n.embPast.BackwardScratch(s, f.pastCaches[t], dEmbPast[t])
	}
}

// windowGrad runs one window forward+backward, leaving the window's
// gradients in the parameters (no optimizer step; Fit clips and steps).
// s is reset first: nothing drawn from it outlives one window.
func (m *TFT) windowGrad(s *nn.Scratch, train *timeseries.Series, w timeseries.Window) {
	s.Reset()
	contextNorm := m.scaler.Transform(w.Context)
	targetNorm := m.scaler.Transform(w.Target)
	startIdx := w.Origin - len(w.Context)

	m.params.ZeroGrads()
	f := m.forward(s, train, contextNorm, startIdx, len(w.Target))
	dOuts := make([][]float64, f.H)
	for k := 0; k < f.H; k++ {
		g := s.Vec(len(m.cfg.Levels))
		for i, tau := range m.cfg.Levels {
			g[i] = PinballGrad(tau, targetNorm[k], f.outs[k][i])
		}
		dOuts[k] = g
	}
	m.backward(s, f, dOuts)
}

// Predict implements Forecaster via the median head (or the single trained
// level for TFT-point).
func (m *TFT) Predict(history *timeseries.Series, h int) ([]float64, error) {
	f, err := m.predictGrid(history, h)
	if err != nil {
		return nil, err
	}
	return f.Mean, nil
}

// predictGrid runs one forward pass and returns the trained quantile grid
// denormalized.
func (m *TFT) predictGrid(history *timeseries.Series, h int) (*QuantileForecast, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: non-positive horizon %d", h)
	}
	context, err := contextTail(history, m.cfg.Context)
	if err != nil {
		return nil, err
	}
	contextNorm := m.scaler.Transform(context)
	startIdx := history.Len() - m.cfg.Context
	// Each call owns an arena from the free list for the forward pass, so
	// steady-state rounds reuse the grown slabs and pooled caches while the
	// model stays safe for concurrent PredictQuantiles callers. fw.outs is
	// arena-backed: it is copied out below before the arena goes back.
	s := m.arenas.take()
	defer m.arenas.put(s)
	fw := m.tftNet.forward(s, history, contextNorm, startIdx, h)

	out := &QuantileForecast{
		Levels: m.cfg.Levels,
		Values: make([][]float64, h),
		Mean:   make([]float64, h),
	}
	for k := 0; k < h; k++ {
		row := make([]float64, len(m.cfg.Levels))
		for i := range m.cfg.Levels {
			row[i] = m.scaler.InverseOne(fw.outs[k][i])
		}
		out.Values[k] = row
	}
	out.Enforce()
	for k := 0; k < h; k++ {
		out.Mean[k] = out.At(k, 0.5)
	}
	return out, nil
}

// PredictQuantiles implements QuantileForecaster. Levels inside the trained
// grid are interpolated; levels outside it are clamped to the grid edges
// (the pre-specified grid limitation from Section III-B).
func (m *TFT) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	levels, err := normalizeLevels(levels)
	if err != nil {
		return nil, err
	}
	grid, err := m.predictGrid(history, h)
	if err != nil {
		return nil, err
	}
	obsPredictions.With("tft").Inc()
	out := &QuantileForecast{
		Levels: levels,
		Values: make([][]float64, h),
		Mean:   grid.Mean,
	}
	for k := 0; k < h; k++ {
		row := make([]float64, len(levels))
		for i, tau := range levels {
			row[i] = grid.At(k, tau)
		}
		out.Values[k] = row
	}
	return out, nil
}

var _ QuantileForecaster = (*TFT)(nil)
