package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"robustscale/internal/nn"
	"robustscale/internal/timeseries"
)

// QB5000Config configures the QueryBot 5000 style hybrid point forecaster.
type QB5000Config struct {
	// Context is the lag window length.
	Context int
	// Hidden is the LSTM component's hidden size.
	Hidden int
	// Epochs trains the LSTM component.
	Epochs int
	// LR is the LSTM component's learning rate.
	LR float64
	// Seed makes training deterministic.
	Seed int64
	// MaxWindows bounds training windows per epoch and the kernel
	// regression's memory.
	MaxWindows int
	// Bandwidth is the kernel regression bandwidth in normalized distance
	// units.
	Bandwidth float64
	// TrainHorizon is the multi-step horizon the components are fit for.
	TrainHorizon int
}

// DefaultQB5000Config mirrors the paper's 72-step setup.
func DefaultQB5000Config() QB5000Config {
	return QB5000Config{
		Context: 72, Hidden: 24, Epochs: 8, LR: 1e-3, Seed: 1,
		MaxWindows: 192, Bandwidth: 1.0, TrainHorizon: 72,
	}
}

// QB5000 is a reimplementation of the QueryBot 5000 hybrid workload
// forecaster (Ma et al., SIGMOD'18): an ensemble of linear regression, a
// recurrent network and kernel regression, averaged into a single point
// forecast. It is used as the paper's point-forecasting scaler baseline.
type QB5000 struct {
	cfg QB5000Config

	scaler timeseries.StandardScaler

	// Linear component: one ridge regression per horizon step.
	linCoef [][]float64 // [step][1+Context]

	// Kernel component: remembered training windows in normalized space.
	kernelX [][]float64
	kernelY [][]float64

	// Recurrent component.
	cell   *nn.LSTMCell
	head   *nn.Dense
	params nn.Params

	fitted bool

	warm qb5000Warm
}

// qb5000Warm caches the recurrent component's conditioning state (on the
// anchored grid, like DeepAR's) plus reused buffers for the linear and
// kernel components, whose windows are fixed-length by construction
// (linCoef dimensions, memorized kernel rows) and are therefore recomputed
// each round — allocation-free — rather than advanced.
type qb5000Warm struct {
	ref    timeseries.Ref
	anchor int
	next   int          // state has consumed conditioning inputs for positions [anchor, next)
	state  nn.LSTMState // owned heap buffers

	sc      *nn.Scratch
	normBuf []float64
	lin     []float64
	ker     []float64
	rec     []float64
	weights []float64
	out     []float64
}

// NewQB5000 returns an untrained hybrid forecaster.
func NewQB5000(cfg QB5000Config) *QB5000 {
	def := DefaultQB5000Config()
	fill(&cfg.Context, def.Context)
	fill(&cfg.Hidden, def.Hidden)
	fill(&cfg.Epochs, def.Epochs)
	fill(&cfg.LR, def.LR)
	fill(&cfg.MaxWindows, def.MaxWindows)
	fill(&cfg.Bandwidth, def.Bandwidth)
	fill(&cfg.TrainHorizon, def.TrainHorizon)
	return &QB5000{cfg: cfg}
}

// Name implements Forecaster.
func (q *QB5000) Name() string { return "qb5000" }

const qb5000InputDim = 1 + timeFeatureDim

// Fit trains all three ensemble components.
func (q *QB5000) Fit(train *timeseries.Series) error {
	q.warm = qb5000Warm{} // new weights invalidate any cached recurrent state
	q.scaler.Fit(train.Values)
	windows, err := trainingWindows(train, q.cfg.Context, q.cfg.TrainHorizon, q.cfg.MaxWindows)
	if err != nil {
		return err
	}

	if err := q.fitLinear(windows); err != nil {
		return err
	}
	q.fitKernel(windows)
	q.fitLSTM(train, windows)
	q.fitted = true
	return nil
}

// fitLinear fits one ridge regression per horizon step on the normalized
// lag window.
func (q *QB5000) fitLinear(windows []timeseries.Window) error {
	rows := len(windows)
	cols := q.cfg.Context + 1
	x := make([][]float64, rows)
	for i, w := range windows {
		row := make([]float64, cols)
		row[0] = 1
		copy(row[1:], q.scaler.Transform(w.Context))
		x[i] = row
	}
	q.linCoef = make([][]float64, q.cfg.TrainHorizon)
	y := make([]float64, rows)
	for h := 0; h < q.cfg.TrainHorizon; h++ {
		for i, w := range windows {
			y[i] = (w.Target[h] - q.scaler.Mean) / q.scaler.Std
		}
		coef, err := ridgeSolve(x, y, 1e-3)
		if err != nil {
			return fmt.Errorf("forecast: qb5000 linear component at step %d: %w", h, err)
		}
		q.linCoef[h] = coef
	}
	return nil
}

// fitKernel memorizes normalized windows for Nadaraya-Watson regression.
func (q *QB5000) fitKernel(windows []timeseries.Window) {
	q.kernelX = make([][]float64, len(windows))
	q.kernelY = make([][]float64, len(windows))
	for i, w := range windows {
		q.kernelX[i] = q.scaler.Transform(w.Context)
		q.kernelY[i] = q.scaler.Transform(w.Target)
	}
}

// buildLSTM constructs the recurrent component's architecture.
func (q *QB5000) buildLSTM() {
	rng := rand.New(rand.NewSource(q.cfg.Seed))
	q.cell = nn.NewLSTMCell("qb5000.lstm", qb5000InputDim, q.cfg.Hidden, rng)
	q.head = nn.NewDense("qb5000.head", q.cfg.Hidden, 1, rng)
	q.params = append(q.cell.Params(), q.head.Params()...)
}

// fitLSTM trains the recurrent component with teacher forcing and MSE.
func (q *QB5000) fitLSTM(train *timeseries.Series, windows []timeseries.Window) {
	q.buildLSTM()
	defer q.params.ReleaseGrads() // a fitted model keeps only its weights
	rng := rand.New(rand.NewSource(q.cfg.Seed))
	opt := nn.NewAdam(q.cfg.LR)
	s := nn.NewScratch()

	order := rng.Perm(len(windows))
	for epoch := 0; epoch < q.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, wi := range order {
			w := windows[wi]
			seq := append(append([]float64{}, w.Context...), w.Target...)
			norm := q.scaler.Transform(seq)
			startIdx := w.Origin - len(w.Context)

			s.Reset()
			steps := len(norm) - 1
			x := s.Mat(steps, qb5000InputDim)
			for t := 0; t < steps; t++ {
				x.Row(t)[0] = norm[t]
				timeFeaturesInto(x.Row(t)[1:], train.TimeAt(startIdx+t+1))
			}

			q.params.ZeroGrads()
			hs, dhs := s.Mat(steps, q.cfg.Hidden), s.Mat(steps, q.cfg.Hidden)
			caches := make([]*nn.LSTMCache, steps)
			q.cell.Sequence(s, nn.LSTMPanels{}, x, hs, q.cell.NewLSTMStateScratch(s), caches)
			for t := 0; t < steps; t++ {
				out, hc := q.head.ForwardScratch(s, hs.Row(t))
				diff := out[0] - norm[t+1]
				copy(dhs.Row(t), q.head.BackwardScratch(s, hc, []float64{2 * diff / float64(steps)}))
			}
			q.cell.BackwardSequenceScratch(s, caches, dhs, nn.LSTMState{})
			q.params.ClipGradNorm(5)
			opt.Step(q.params)
		}
	}
}

// Predict implements Forecaster: the equally weighted ensemble mean. It
// runs predict on a cache local to the call, so it is safe for concurrent
// use.
func (q *QB5000) Predict(history *timeseries.Series, h int) ([]float64, error) {
	return q.predict(&qb5000Warm{}, history, h)
}

func (q *QB5000) predictLinear(norm []float64, h int, out []float64) []float64 {
	for t := 0; t < h; t++ {
		coef := q.linCoef[t]
		v := coef[0]
		for j, c := range coef[1:] {
			v += c * norm[j]
		}
		out[t] = v
	}
	return out
}

func (q *QB5000) predictKernel(norm []float64, h int, out, weights []float64) []float64 {
	maxLogW := math.Inf(-1)
	for i, kx := range q.kernelX {
		d2 := 0.0
		for j := range kx {
			d := kx[j] - norm[j]
			d2 += d * d
		}
		// Log-space kernel weights avoid total underflow.
		weights[i] = -d2 / (2 * q.cfg.Bandwidth * q.cfg.Bandwidth * float64(len(kx)))
		if weights[i] > maxLogW {
			maxLogW = weights[i]
		}
	}
	sum := 0.0
	for i := range weights {
		weights[i] = math.Exp(weights[i] - maxLogW)
		sum += weights[i]
	}
	for t := 0; t < h; t++ {
		v := 0.0
		for i, w := range weights {
			v += w * q.kernelY[i][t]
		}
		out[t] = v / sum
	}
	return out
}

// lstmInput builds the recurrent component's input vector for one step
// from the arena (heap when s is nil).
func (q *QB5000) lstmInput(s *nn.Scratch, prevNorm float64, ts time.Time) []float64 {
	x := s.Vec(qb5000InputDim)
	x[0] = prevNorm
	timeFeaturesInto(x[1:], ts)
	return x
}

// lstmStep feeds the observation preceding position p (at the anchor: the
// anchor observation itself) with position p's calendar features.
func (q *QB5000) lstmStep(s *nn.Scratch, state nn.LSTMState, history *timeseries.Series, anchor, p int) nn.LSTMState {
	prev := p - 1
	if p == anchor {
		prev = anchor
	}
	x := q.lstmInput(s, q.scaler.TransformOne(history.At(prev)), history.TimeAt(p))
	state, _ = q.cell.StepScratch(s, x, state)
	return state
}

// decodeLSTM rolls the decoder h steps from the conditioning state, feeding
// each prediction back as the next input.
func (q *QB5000) decodeLSTM(s *nn.Scratch, state nn.LSTMState, history *timeseries.Series, h int, out []float64) []float64 {
	prev := q.scaler.TransformOne(history.At(history.Len() - 1))
	for t := 0; t < h; t++ {
		x := q.lstmInput(s, prev, history.TimeAt(history.Len()+t))
		state, _ = q.cell.StepScratch(s, x, state)
		y, _ := q.head.ForwardScratch(s, state.H)
		out[t] = y[0]
		prev = y[0]
	}
	return out
}

// PredictWarm implements IncrementalPointForecaster: Predict on the
// forecaster's own cache. The returned slice is forecaster-owned scratch,
// valid until the next predict.
func (q *QB5000) PredictWarm(history *timeseries.Series, h int) ([]float64, error) {
	return q.predict(&q.warm, history, h)
}

// predict is the one body of both entries, on the cache w: the recurrent
// component's conditioning state advances by one step per new observation
// along the anchored grid [warmAnchor(n, Context), n), or is rebuilt from
// the anchor, and the linear and kernel components reuse w's buffers.
func (q *QB5000) predict(w *qb5000Warm, history *timeseries.Series, h int) ([]float64, error) {
	if !q.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: non-positive horizon %d", h)
	}
	if h > q.cfg.TrainHorizon {
		return nil, fmt.Errorf("forecast: qb5000 trained for horizon %d, requested %d", q.cfg.TrainHorizon, h)
	}
	n := history.Len()
	if n < q.cfg.Context {
		return nil, ErrShortHistory
	}

	// Fixed-length normalized tail for the linear and kernel components.
	w.normBuf = resize(w.normBuf, q.cfg.Context)
	for i := range w.normBuf {
		w.normBuf[i] = q.scaler.TransformOne(history.At(n - q.cfg.Context + i))
	}
	w.lin = q.predictLinear(w.normBuf, h, resize(w.lin, h))
	w.weights = resize(w.weights, len(q.kernelX))
	w.ker = q.predictKernel(w.normBuf, h, resize(w.ker, h), w.weights)

	// Recurrent component: advance the cached state along the anchored grid,
	// or rebuild from the anchor on any discontinuity.
	anchor := warmAnchor(n, q.cfg.Context)
	if w.sc == nil {
		w.sc = nn.NewScratch()
	}
	sc := w.sc
	sc.Reset()
	state := nn.LSTMState{H: w.state.H, C: w.state.C}
	from := w.next
	if w.anchor != anchor || w.next > n || !w.ref.Extends(history) {
		state = q.cell.NewLSTMStateScratch(sc)
		from = anchor
	}
	for p := from; p < n; p++ {
		state = q.lstmStep(sc, state, history, anchor, p)
	}
	w.state.H = append(w.state.H[:0], state.H...)
	w.state.C = append(w.state.C[:0], state.C...)
	w.anchor, w.next = anchor, n
	w.ref.Record(history)

	// Decode from a scratch copy so the owned state stays pre-decode.
	w.rec = q.decodeLSTM(sc, nn.LSTMState{H: w.state.H, C: w.state.C}, history, h, resize(w.rec, h))

	w.out = resize(w.out, h)
	for t := 0; t < h; t++ {
		w.out[t] = q.scaler.InverseOne((w.lin[t] + w.ker[t] + w.rec[t]) / 3)
	}
	return w.out, nil
}

var (
	_ Forecaster                 = (*QB5000)(nil)
	_ IncrementalPointForecaster = (*QB5000)(nil)
)
