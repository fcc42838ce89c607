package forecast

import (
	"fmt"
	"math/rand"
	"sort"
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

	arenas arenaList // cold predict's forward passes, reused across calls
	warm   tftWarm
}

// arenaList is a free list of forward passes, each an arena with its
// activation record, shared by concurrent cold predict callers: each call
// takes one for its forward pass and puts it back, so the list never
// holds more than the peak number of concurrent callers. It is a plain
// list, not a sync.Pool: the GC empties a Pool, and a round that re-grows
// its arena after a collection makes the per-round malloc count drift
// from run to run.
type arenaList struct {
	mu   sync.Mutex
	free []*tftForward
}

// take returns an empty pass, a new one when the list has none.
func (l *arenaList) take() *tftForward {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return &tftForward{s: nn.NewScratch()}
	}
	f := l.free[n-1]
	l.free = l.free[:n-1]
	return f
}

// put resets a pass's arena and hands the pass back; nothing drawn from
// it may be used afterwards.
func (l *arenaList) put(f *tftForward) {
	f.s.Reset() // outside the lock: the caller still owns the pass here
	l.mu.Lock()
	l.free = append(l.free, f)
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
	fill(&cfg.Context, def.Context)
	fill(&cfg.Hidden, def.Hidden)
	fill(&cfg.Epochs, def.Epochs)
	fill(&cfg.LR, def.LR)
	fill(&cfg.MaxWindows, def.MaxWindows)
	if len(cfg.Levels) == 0 {
		cfg.Levels = append([]float64{}, def.Levels...)
	}
	fill(&cfg.TrainHorizon, def.TrainHorizon)
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
	defer m.params.ReleaseGrads() // a fitted model keeps only its weights
	m.scaler.Fit(train.Values)
	windows, err := trainingWindows(train, m.cfg.Context, m.cfg.TrainHorizon, m.cfg.MaxWindows)
	if err != nil {
		return err
	}

	f := &tftForward{s: nn.NewScratch()}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 1)) // shuffle stream, distinct from init
	opt := nn.NewAdam(m.cfg.LR)
	order := rng.Perm(len(windows))
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		spe := obs.DefaultTracer.Start("tft.epoch")
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, wi := range order {
			m.windowGrad(f, train, windows[wi])
			m.params.ClipGradNorm(5)
			opt.Step(m.params)
		}
		spe.End()
		obsTFTEpochs.Inc()
	}
	m.fitted = true
	return nil
}

// tftForward is one forward pass: the arena s that every vector, matrix
// and cache of the pass is drawn from, and the activation record. The
// record's slices keep their capacity from pass to pass, so a pass at a
// shape it has run before allocates nothing.
type tftForward struct {
	s          *nn.Scratch
	T, H       int
	pastCaches []*nn.DenseCache
	futCaches  []*nn.DenseCache
	encCaches  []*nn.LSTMCache
	decCaches  []*nn.LSTMCache
	attnCache  *nn.AttnCache
	headCaches []*nn.DenseCache
	outs       [][]float64 // [step][level] normalized quantile outputs
}

// forward runs encoder, decoder, attention and heads into the pass f.
// contextNorm has T normalized observations; startIdx is the absolute
// index of contextNorm[0] within the series that provides the calendar.
func (n *tftNet) forward(f *tftForward, series *timeseries.Series, contextNorm []float64, startIdx, horizon int) {
	s := f.s
	T, H := len(contextNorm), horizon
	f.T, f.H = T, H
	f.pastCaches, f.encCaches = resize(f.pastCaches, T), resize(f.encCaches, T)
	f.futCaches, f.decCaches = resize(f.futCaches, H), resize(f.decCaches, H)
	f.headCaches, f.outs = resize(f.headCaches, H), resize(f.outs, H)

	// The encoder's and the decoder's hidden states are the attention's
	// input rows: the encoder's first, then the decoder's.
	x := s.Mat(T+H, n.hidden)
	hsE := nn.Mat{Rows: T, Cols: n.hidden, Data: x.Data[:T*n.hidden]}
	hsD := nn.Mat{Rows: H, Cols: n.hidden, Data: x.Data[T*n.hidden:]}

	embPast := s.Mat(T, n.hidden)
	for t := 0; t < T; t++ {
		in := s.Vec(tftPastDim)
		in[0] = contextNorm[t]
		timeFeaturesInto(in[1:], series.TimeAt(startIdx+t))
		var emb []float64
		emb, f.pastCaches[t] = n.embPast.ForwardScratch(s, in)
		copy(embPast.Row(t), emb)
	}
	state := n.enc.Sequence(s, nn.LSTMPanels{}, embPast, hsE, n.enc.NewLSTMStateScratch(s), f.encCaches)

	embFut := s.Mat(H, n.hidden)
	for k := 0; k < H; k++ {
		feats := s.Vec(timeFeatureDim)
		timeFeaturesInto(feats, series.TimeAt(startIdx+T+k))
		var emb []float64
		emb, f.futCaches[k] = n.embFut.ForwardScratch(s, feats)
		copy(embFut.Row(k), emb)
	}
	// The decoder starts from the encoder's final state.
	n.dec.Sequence(s, nn.LSTMPanels{}, embFut, hsD, state, f.decCaches)

	var attnOut nn.Mat
	attnOut, f.attnCache = n.attn.ForwardScratch(s, x)

	for k := 0; k < H; k++ {
		z := s.Vec(n.hidden)
		arow := attnOut.Row(T + k)
		for j := range z {
			z[j] = arow[j] + hsD.At(k, j) // residual connection
		}
		f.outs[k], f.headCaches[k] = n.head.ForwardScratch(s, z)
	}
}

// backward propagates per-step, per-level output gradients through the
// whole network, accumulating parameter gradients.
func (n *tftNet) backward(f *tftForward, dOuts [][]float64) {
	s := f.s
	T, H := f.T, f.H
	dA := s.Mat(T+H, n.hidden)
	dhsD := s.Mat(H, n.hidden)
	for k := 0; k < H; k++ {
		dz := n.head.BackwardScratch(s, f.headCaches[k], dOuts[k])
		copy(dA.Row(T+k), dz)
		copy(dhsD.Row(k), dz) // residual path
	}

	dX := n.attn.BackwardScratch(s, f.attnCache, dA)
	for i, g := range dX.Data[T*n.hidden:] {
		dhsD.Data[i] += g
	}

	dEmbFut, dS0dec := n.dec.BackwardSequenceScratch(s, f.decCaches, dhsD, nn.LSTMState{})
	for k := 0; k < H; k++ {
		n.embFut.BackwardScratch(s, f.futCaches[k], dEmbFut.Row(k))
	}
	// The encoder's hidden-state gradients are dX's first T rows.
	dhsE := nn.Mat{Rows: T, Cols: n.hidden, Data: dX.Data[:T*n.hidden]}
	dEmbPast, _ := n.enc.BackwardSequenceScratch(s, f.encCaches, dhsE, dS0dec)
	for t := 0; t < T; t++ {
		n.embPast.BackwardScratch(s, f.pastCaches[t], dEmbPast.Row(t))
	}
}

// windowGrad runs one window forward+backward in the pass f, leaving the
// window's gradients in the parameters (no optimizer step; Fit clips and
// steps). f's arena is reset first: nothing drawn from it outlives one
// window.
func (m *TFT) windowGrad(f *tftForward, train *timeseries.Series, w timeseries.Window) {
	f.s.Reset()
	contextNorm := m.scaler.Transform(w.Context)
	targetNorm := m.scaler.Transform(w.Target)
	startIdx := w.Origin - len(w.Context)

	m.params.ZeroGrads()
	m.forward(f, train, contextNorm, startIdx, len(w.Target))
	dOuts := make([][]float64, f.H)
	for k := 0; k < f.H; k++ {
		g := f.s.Vec(len(m.cfg.Levels))
		for i, tau := range m.cfg.Levels {
			g[i] = PinballGrad(tau, targetNorm[k], f.outs[k][i])
		}
		dOuts[k] = g
	}
	m.backward(f, dOuts)
}

// Predict implements Forecaster via the median of the trained grid (the
// single trained level for TFT-point).
func (m *TFT) Predict(history *timeseries.Series, h int) ([]float64, error) {
	return medianMean(m.predict(history, h, []float64{0.5}))
}

// PredictQuantiles implements QuantileForecaster. Levels inside the trained
// grid are interpolated; levels outside it are clamped to the grid edges
// (the pre-specified grid limitation from Section III-B). The returned fan
// is the caller's, and concurrent callers are safe.
func (m *TFT) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	f, err := m.predict(history, h, levels)
	if err != nil {
		return nil, err
	}
	obsPredictions.With("tft").Inc()
	return f, nil
}

// predict is the cold path: a fresh fan, filled through a forward pass
// taken from the free list for the length of the call.
func (m *TFT) predict(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	levels, err := normalizeLevels(levels)
	if err != nil {
		return nil, err
	}
	if err := m.canPredict(history, h); err != nil {
		return nil, err
	}
	f := m.arenas.take()
	defer m.arenas.put(f)
	out := reuseFan(nil, h, levels)
	m.fill(f, out, history)
	return out, nil
}

// canPredict reports why the model cannot forecast h steps after history.
func (m *TFT) canPredict(history *timeseries.Series, h int) error {
	if !m.fitted {
		return ErrNotFitted
	}
	if h <= 0 {
		return fmt.Errorf("forecast: non-positive horizon %d", h)
	}
	if history.Len() < m.cfg.Context {
		return ErrShortHistory
	}
	return nil
}

// fill runs one forward pass in f over the last Context observations of
// history and writes the fan into out, already shaped for its horizon and
// levels. Each step's trained grid is denormalized and sorted (quantile
// crossing is an artifact of independently trained heads, as in
// Enforce), then interpolated at 0.5 for the mean and at every requested
// level straight into out. Once f has grown to the shape, nothing is
// allocated.
func (m *TFT) fill(f *tftForward, out *QuantileForecast, history *timeseries.Series) {
	startIdx := history.Len() - m.cfg.Context
	contextNorm := f.s.Vec(m.cfg.Context)
	for i, v := range history.Values[startIdx:] {
		contextNorm[i] = m.scaler.TransformOne(v)
	}
	m.forward(f, history, contextNorm, startIdx, out.Horizon())
	grid := f.s.Vec(len(m.cfg.Levels))
	for k, row := range out.Values {
		for i, v := range f.outs[k] {
			grid[i] = m.scaler.InverseOne(v)
		}
		sort.Float64s(grid)
		out.Mean[k] = quantileAt(m.cfg.Levels, grid, 0.5)
		for i, tau := range out.Levels {
			row[i] = quantileAt(m.cfg.Levels, grid, tau)
		}
	}
}

// tftWarm is the warm path's pooled state: one forward pass and the fan it
// returns. The TFT reads a fixed-length context window afresh every round
// and carries no state from one round to the next, so there is nothing to
// advance and nothing to invalidate: the warm path is the cold
// computation on buffers the forecaster owns.
type tftWarm struct {
	pass   tftForward
	levels levelsCache
	fan    *QuantileForecast
}

// PredictQuantilesWarm implements IncrementalForecaster: PredictQuantiles
// on the warm path's own forward pass and fan, bit-identical to it and
// allocation-free in steady state. The returned forecast is a scratch
// owned by the forecaster, valid until the next warm predict; see warm.go
// for the full contract.
func (m *TFT) PredictQuantilesWarm(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	lv, err := m.warm.levels.get(levels)
	if err != nil {
		return nil, err
	}
	if err := m.canPredict(history, h); err != nil {
		return nil, err
	}
	w := &m.warm
	if w.pass.s == nil {
		w.pass.s = nn.NewScratch()
	}
	w.pass.s.Reset()
	w.fan = reuseFan(w.fan, h, lv)
	m.fill(&w.pass, w.fan, history)
	obsPredictions.With("tft").Inc()
	return w.fan, nil
}

var (
	_ QuantileForecaster    = (*TFT)(nil)
	_ IncrementalForecaster = (*TFT)(nil)
)
