package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"robustscale/internal/dist"
	"robustscale/internal/nn"
	"robustscale/internal/obs"
	"robustscale/internal/parallel"
	"robustscale/internal/timeseries"
)

// Emission selects the parametric output distribution of the DeepAR head.
type Emission string

// Supported emissions. The paper chooses Student-t for its longer tails;
// Gaussian is kept for the ablation bench.
const (
	EmitStudentT Emission = "student-t"
	EmitGaussian Emission = "gaussian"
)

// DeepARConfig configures the autoregressive recurrent forecaster.
type DeepARConfig struct {
	// Context is the conditioning window length T.
	Context int
	// Hidden is the LSTM hidden size.
	Hidden int
	// Epochs is the number of passes over the training windows.
	Epochs int
	// LR is the Adam learning rate; the paper fixes 1e-3.
	LR float64
	// Seed makes initialization, shuffling and sampling deterministic.
	Seed int64
	// MaxWindows bounds the number of training windows per epoch.
	MaxWindows int
	// Samples is the number of Monte-Carlo paths drawn to estimate
	// quantiles at prediction time; larger is more precise and slower
	// (this drives DeepAR's inference cost in Tables II/III).
	Samples int
	// TrainHorizon is the decoder length used during training sequences.
	TrainHorizon int
	// Emission selects the output distribution.
	Emission Emission
	// Workers bounds the concurrency of Monte-Carlo sampling; 0 means one
	// worker per CPU. Outputs are bit-identical for every value (each
	// sample path owns a seed-derived RNG and writes only its own slot).
	Workers int
}

// DefaultDeepARConfig mirrors the paper's setup: 72-step context, Student-t
// emission, sampled quantiles.
func DefaultDeepARConfig() DeepARConfig {
	return DeepARConfig{
		Context: 72, Hidden: 32, Epochs: 12, LR: 1e-3, Seed: 1,
		MaxWindows: 192, Samples: 100, TrainHorizon: 72, Emission: EmitStudentT,
	}
}

// DeepAR is an autoregressive recurrent probabilistic forecaster in the
// style of Salinas et al.: an LSTM conditioned on the lagged series and
// calendar covariates emits the parameters of a parametric distribution at
// each step; multi-step forecasts are produced by ancestral sampling, which
// is why its inference is an order of magnitude slower than TFT's.
type DeepAR struct {
	cfg DeepARConfig

	scaler timeseries.StandardScaler
	cell   *nn.LSTMCell
	head   *nn.Dense
	params nn.Params
	fitted bool

	warm deeparWarm
}

// NewDeepAR returns an untrained DeepAR forecaster.
func NewDeepAR(cfg DeepARConfig) *DeepAR {
	def := DefaultDeepARConfig()
	fill(&cfg.Context, def.Context)
	fill(&cfg.Hidden, def.Hidden)
	fill(&cfg.Epochs, def.Epochs)
	fill(&cfg.LR, def.LR)
	fill(&cfg.MaxWindows, def.MaxWindows)
	fill(&cfg.Samples, def.Samples)
	fill(&cfg.TrainHorizon, def.TrainHorizon)
	fill(&cfg.Emission, def.Emission)
	return &DeepAR{cfg: cfg}
}

// Name implements Forecaster.
func (d *DeepAR) Name() string { return "deepar" }

// headSize is the number of emission parameters.
func (d *DeepAR) headSize() int {
	if d.cfg.Emission == EmitGaussian {
		return 2
	}
	return 3
}

const deepARInputDim = 1 + timeFeatureDim

// build constructs the network architecture.
func (d *DeepAR) build() {
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	d.cell = nn.NewLSTMCell("deepar.lstm", deepARInputDim, d.cfg.Hidden, rng)
	d.head = nn.NewDense("deepar.head", d.cfg.Hidden, d.headSize(), rng)
	d.params = append(d.cell.Params(), d.head.Params()...)
}

// Fit trains the model on the series with teacher forcing and BPTT, one
// Adam step per window.
func (d *DeepAR) Fit(train *timeseries.Series) error {
	d.warm = deeparWarm{} // new weights invalidate any cached recurrent state
	d.build()
	defer d.params.ReleaseGrads() // a fitted model keeps only its weights
	d.scaler.Fit(train.Values)

	windows, err := trainingWindows(train, d.cfg.Context, d.cfg.TrainHorizon, d.cfg.MaxWindows)
	if err != nil {
		return err
	}

	s := nn.NewScratch()
	rng := rand.New(rand.NewSource(d.cfg.Seed + 1)) // shuffle stream, distinct from init
	opt := nn.NewAdam(d.cfg.LR)
	order := rng.Perm(len(windows))
	for epoch := 0; epoch < d.cfg.Epochs; epoch++ {
		spe := obs.DefaultTracer.Start("deepar.epoch")
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, wi := range order {
			d.windowGrad(s, train, windows[wi])
			d.params.ClipGradNorm(5)
			opt.Step(d.params)
		}
		spe.End()
		obsDeepAREpochs.Inc()
	}
	d.fitted = true
	return nil
}

// windowGrad runs one teacher-forced sequence through the network and
// leaves the window's gradients in the parameters (no optimizer step; Fit
// clips and steps). s is reset first: nothing drawn from it outlives one
// window.
func (d *DeepAR) windowGrad(s *nn.Scratch, train *timeseries.Series, w timeseries.Window) {
	s.Reset()

	// The sequence covers context plus horizon; at step t the input is the
	// normalized previous observation and the target is the current one.
	seq := make([]float64, 0, len(w.Context)+len(w.Target))
	seq = append(seq, w.Context...)
	seq = append(seq, w.Target...)
	norm := d.scaler.Transform(seq)
	startIdx := w.Origin - len(w.Context) // absolute index of seq[0]

	steps := len(norm) - 1
	x := s.Mat(steps, deepARInputDim)
	for t := 0; t < steps; t++ {
		d.stepInput(x.Row(t), norm[t], train.TimeAt(startIdx+t+1))
	}

	d.params.ZeroGrads()
	hs := s.Mat(steps, d.cfg.Hidden)
	caches := make([]*nn.LSTMCache, steps)
	d.cell.Sequence(s, nn.LSTMPanels{}, x, hs, d.cell.NewLSTMStateScratch(s), caches)
	dhs := s.Mat(steps, d.cfg.Hidden)
	headCaches := make([]*nn.DenseCache, steps)
	dOuts := make([][]float64, steps)
	for t := 0; t < steps; t++ {
		out, hc := d.head.ForwardScratch(s, hs.Row(t))
		headCaches[t] = hc
		dOuts[t] = d.nllGrad(out, norm[t+1])
	}
	for t := 0; t < steps; t++ {
		copy(dhs.Row(t), d.head.BackwardScratch(s, headCaches[t], dOuts[t]))
	}
	d.cell.BackwardSequenceScratch(s, caches, dhs, nn.LSTMState{})
}

// stepInput writes the covariate vector of one step into x: previous
// normalized value plus the calendar features of the step's own
// timestamp.
func (d *DeepAR) stepInput(x []float64, prevNorm float64, ts time.Time) {
	x[0] = prevNorm
	timeFeaturesInto(x[1:deepARInputDim], ts)
}

// emission is the head's output distribution as a plain value: the
// rollout builds one per path per step, and an interface value would box
// each of them onto the heap.
type emission struct {
	gaussian bool
	normal   dist.Normal   // set when gaussian
	studentT dist.StudentT // set otherwise
}

// Sample draws one value, consuming rng exactly as the underlying
// distribution does.
func (e emission) Sample(rng *rand.Rand) float64 {
	if e.gaussian {
		return e.normal.Sample(rng)
	}
	return e.studentT.Sample(rng)
}

// emissionFrom maps raw head outputs to a distribution.
func (d *DeepAR) emissionFrom(out []float64) emission {
	mu := out[0]
	sigma := dist.Softplus(out[1]) + 1e-4
	if d.cfg.Emission == EmitGaussian {
		return emission{gaussian: true, normal: dist.NewNormal(mu, sigma)}
	}
	nu := 2.1 + dist.Softplus(out[2])
	return emission{studentT: dist.NewStudentT(nu, mu, sigma)}
}

// nllGrad returns the gradient of the negative log-likelihood of target y
// with respect to the raw head outputs.
func (d *DeepAR) nllGrad(out []float64, y float64) []float64 {
	mu := out[0]
	sigma := dist.Softplus(out[1]) + 1e-4
	g := make([]float64, len(out))
	if d.cfg.Emission == EmitGaussian {
		z := (y - mu) / sigma
		g[0] = -z / sigma
		dSigma := 1/sigma - z*z/sigma
		g[1] = dSigma * dist.SoftplusDeriv(out[1])
		return g
	}
	nu := 2.1 + dist.Softplus(out[2])
	z := (y - mu) / sigma
	a := 1 + z*z/nu
	// d logpdf / d{mu, sigma, nu}; NLL flips the sign.
	dMu := (nu + 1) * z / (nu * a * sigma)
	dSigma := -1/sigma + (nu+1)*z*z/(nu*a*sigma)
	dNu := 0.5*(dist.Digamma((nu+1)/2)-dist.Digamma(nu/2)) -
		1/(2*nu) - 0.5*math.Log(a) + (nu+1)*z*z/(2*nu*nu*a)
	g[0] = -dMu
	g[1] = -dSigma * dist.SoftplusDeriv(out[1])
	g[2] = -dNu * dist.SoftplusDeriv(out[2])
	return g
}

// conditionInput writes into x the input of the teacher-forced
// conditioning step for position p of the series: the normalized
// observation at p-1 (at the window anchor, with no earlier observation
// inside the window, the value at the anchor itself) plus the calendar
// features of p's own timestamp. Position history.Len() is the "extra
// step" conditioned on the final observation, whose emission
// parameterizes the first forecast step.
func (d *DeepAR) conditionInput(x []float64, history *timeseries.Series, anchor, p int) {
	prev := p - 1
	if p == anchor {
		prev = anchor // no earlier observation; condition on itself
	}
	d.stepInput(x, d.scaler.TransformOne(history.At(prev)), history.TimeAt(p))
}

// Predict implements Forecaster via the sample mean of the Monte-Carlo
// paths.
func (d *DeepAR) Predict(history *timeseries.Series, h int) ([]float64, error) {
	return medianMean(d.PredictQuantiles(history, h, []float64{0.5}))
}

// PredictQuantiles implements QuantileForecaster by ancestral sampling:
// Samples paths are rolled forward feeding each draw back as the next
// input, and per-step empirical quantiles are reported. Paths are fanned
// across cfg.Workers goroutines; each path draws from its own
// seed-derived RNG and writes only its own sample slots, so the result is
// bit-identical for every worker count (including 1). It runs predict on
// a cache local to the call, so it is safe for concurrent use.
func (d *DeepAR) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	return d.predict(&deeparWarm{}, history, h, levels)
}

// sampleBlock is how many Monte-Carlo paths one worker rolls forward in
// lockstep: a block's LSTM and head products run as one batched pass
// (nn.LSTMCell.StepBatch, nn.Dense.ForwardBatch), which streams each
// weight matrix once per pair of paths instead of once per path.
const sampleBlock = 8

// sampleBlocks is the number of lockstep blocks paths split into; the
// last one holds the remainder.
func sampleBlocks(paths int) int { return (paths + sampleBlock - 1) / sampleBlock }

// growPathRands returns rngs extended to at least n path RNGs.
func growPathRands(rngs []*rand.Rand, n int) []*rand.Rand {
	for len(rngs) < n {
		rngs = append(rngs, newPathRand(0))
	}
	return rngs
}

// sample rolls the Monte-Carlo paths forward from state0/emit0 and fills
// the [h][paths] sample matrix in normalized space. feats is an
// (h-1)*timeFeatureDim buffer for the calendar covariates of the rollout
// steps: they depend on the step, not the path, so they are computed once
// before the fan-out. Paths run in blocks of sampleBlock, one block per
// task; each path draws only from its own RNG, seeded from its index, so
// the block size and the worker count cannot reach a sample. rngs holds
// sampleBlock RNGs per worker, re-seeded per path, which yields the
// identical stream to a freshly constructed source. The horizon-1 round —
// the high-frequency steady state — never rolls the LSTM, so it draws
// sequentially on the caller's goroutine, from rngs[0], and skips the
// worker fan-out entirely. A longer rollout steps every block on panels,
// the one pack of the LSTM weights predict made.
func (d *DeepAR) sample(history *timeseries.Series, h int, state0 nn.LSTMState, emit0 emission, samples [][]float64, feats []float64, panels nn.LSTMPanels, scratches []*nn.Scratch, rngs []*rand.Rand) {
	paths := len(samples[0])
	obsPredictions.With("deepar").Inc()
	obsMCPaths.Add(float64(paths))
	base := d.cfg.Seed + int64(history.Len())

	if h == 1 {
		row, rng := samples[0], rngs[0]
		for sIdx := range row {
			rng.Seed(pathSeed(base, sIdx))
			row[sIdx] = emit0.Sample(rng)
		}
		return
	}

	for t := 0; t < h-1; t++ {
		timeFeaturesInto(feats[t*timeFeatureDim:(t+1)*timeFeatureDim], history.TimeAt(history.Len()+t+1))
	}
	workers := len(scratches)
	sp := obs.DefaultTracer.Start("deepar.sample")
	parallel.ForEachWorkerSpan("deepar.sample", workers, sampleBlocks(paths), func(worker, blk int) {
		lo := blk * sampleBlock
		n := min(sampleBlock, paths-lo)
		block := rngs[worker*sampleBlock:][:n]
		for b, rng := range block {
			rng.Seed(pathSeed(base, lo+b))
		}
		sc := scratches[worker]
		sc.Reset()
		states := d.cell.NewLSTMBatch(sc, n)
		for b := 0; b < n; b++ {
			copy(states.H.Row(b), state0.H)
			copy(states.C.Row(b), state0.C)
		}
		x := sc.Mat(n, deepARInputDim)
		out := sc.Mat(n, d.headSize())
		for t := 0; t < h; t++ {
			row := samples[t][lo : lo+n]
			for b := range row {
				emit := emit0
				if t > 0 {
					emit = d.emissionFrom(out.Row(b))
				}
				row[b] = emit.Sample(block[b])
			}
			if t == h-1 {
				break
			}
			for b, z := range row {
				xb := x.Row(b)
				xb[0] = z
				copy(xb[1:], feats[t*timeFeatureDim:(t+1)*timeFeatureDim])
			}
			d.cell.StepBatch(states, x, panels)
			d.head.ForwardBatch(states.H, out)
		}
	})
	sp.End()
}

// assemble turns the sample matrix into the fan: each row is sorted in
// place, without a per-step copy (the next round redraws every slot), and
// reduced to its mean and the requested quantiles, denormalized. The mean
// sums in sorted order, so it does not depend on how the paths were drawn.
func (d *DeepAR) assemble(f *QuantileForecast, samples [][]float64) {
	for t, sorted := range samples {
		sort.Float64s(sorted)
		f.Mean[t] = d.scaler.InverseOne(dist.SortedMean(sorted))
		row := f.Values[t]
		for i, tau := range f.Levels {
			row[i] = d.scaler.InverseOne(timeseries.InterpolatedQuantile(sorted, tau))
		}
	}
}

// deeparWarm is the cached recurrent state plus the pooled prediction
// buffers of the warm fast path. The state is derived entirely from the
// fitted weights and the observed history: it is rebuilt on any
// discontinuity and is never checkpointed (Load drops it).
type deeparWarm struct {
	ref    timeseries.Ref
	anchor int          // conditioning window start of the cached state
	next   int          // the state has consumed conditioning inputs for positions [anchor, next)
	state  nn.LSTMState // owned heap buffers, never scratch-backed

	adv       *nn.Scratch   // scratch arena for advance/rebuild steps
	samples   [][]float64   // pooled [h][paths] Monte-Carlo matrix
	feats     []float64     // pooled rollout-step calendar covariates
	scratches []*nn.Scratch // one per sampling worker
	rngs      []*rand.Rand  // sampleBlock per sampling worker
	levels    levelsCache
	fan       *QuantileForecast
}

// PredictQuantilesWarm implements IncrementalForecaster: PredictQuantiles
// on the forecaster's own cache. The returned forecast is a scratch owned
// by the forecaster, valid until the next predict; see warm.go for the
// full contract.
func (d *DeepAR) PredictQuantilesWarm(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	return d.predict(&d.warm, history, h, levels)
}

// predict is the one body of both entries, on the cache w. When the
// history is an append-extension of the one w's state was built from and
// the anchored conditioning window hasn't moved, the recurrent state is
// advanced with one conditioning step per new observation instead of
// replaying the whole window; otherwise it is rebuilt from the anchor.
// The window starts at warmAnchor(n, Context), a pure function of the
// history length, so both walk the same inputs from the same zero state
// and give the same bits.
func (d *DeepAR) predict(w *deeparWarm, history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	if !d.fitted {
		return nil, ErrNotFitted
	}
	lv, err := w.levels.get(levels)
	if err != nil {
		return nil, err
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: non-positive horizon %d", h)
	}
	n := history.Len()
	if n < d.cfg.Context {
		return nil, ErrShortHistory
	}
	anchor := warmAnchor(n, d.cfg.Context)
	if w.adv == nil {
		w.adv = nn.NewScratch()
	}
	sc := w.adv
	sc.Reset()

	// Conditioning: advance the cached state over the newly appended
	// observations, or rebuild it from the anchor when the cache cannot
	// prove continuity. The final conditioning input is at position n (the
	// "extra step" on the last observation), so a state that has consumed
	// [anchor, n+1) is exactly what this origin needs — and what the next
	// origin resumes from.
	state := nn.LSTMState{H: w.state.H, C: w.state.C}
	from := w.next
	if w.anchor != anchor || w.next > n+1 || !w.ref.Extends(history) {
		state = d.cell.NewLSTMStateScratch(sc)
		from = anchor
	}
	// A rollout packs the LSTM weights once, and conditioning runs on
	// that pack too; without one, Sequence packs for a long rebuild.
	var panels nn.LSTMPanels
	if h > 1 {
		panels = d.cell.PackPanels(sc)
	}
	x := nn.Mat{Rows: n + 1 - from, Cols: deepARInputDim, Data: sc.Vec((n + 1 - from) * deepARInputDim)}
	for i := 0; i < x.Rows; i++ {
		d.conditionInput(x.Row(i), history, anchor, from+i)
	}
	state = d.cell.Sequence(sc, panels, x, nn.Mat{}, state, nil)
	out, _ := d.head.ForwardScratch(sc, state.H)
	emit0 := d.emissionFrom(out)
	w.state.H = append(w.state.H[:0], state.H...)
	w.state.C = append(w.state.C[:0], state.C...)
	w.anchor, w.next = anchor, n+1
	w.ref.Record(history)

	paths := d.cfg.Samples
	w.samples = resize(w.samples, h)
	for t := range w.samples {
		w.samples[t] = resize(w.samples[t], paths)
	}
	workers := 1
	if h > 1 {
		workers = parallel.Workers(d.cfg.Workers, sampleBlocks(paths))
	}
	for len(w.scratches) < workers {
		w.scratches = append(w.scratches, nn.NewScratch())
	}
	w.rngs = growPathRands(w.rngs, workers*sampleBlock)
	state0 := nn.LSTMState{H: w.state.H, C: w.state.C}
	w.feats = resize(w.feats, (h-1)*timeFeatureDim)
	d.sample(history, h, state0, emit0, w.samples, w.feats, panels, w.scratches[:workers], w.rngs)

	w.fan = reuseFan(w.fan, h, lv)
	d.assemble(w.fan, w.samples)
	return w.fan, nil
}

var _ QuantileForecaster = (*DeepAR)(nil)
var _ IncrementalForecaster = (*DeepAR)(nil)
