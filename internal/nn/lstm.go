package nn

import (
	"fmt"
	"math/rand"
)

// LSTMCell is a standard long short-term memory cell with input, forget,
// output and candidate gates. It backs both the DeepAR-style autoregressive
// forecaster and the TFT encoder/decoder.
//
// Gate layout inside the stacked weight matrices is [i; f; g; o], each of
// Hidden rows.
type LSTMCell struct {
	InSize, Hidden int
	Wx             *Param // (4H x In)
	Wh             *Param // (4H x H)
	B              *Param // (4H x 1)
}

// NewLSTMCell creates an LSTM cell with Xavier-initialized weights and the
// forget-gate bias set to 1 (the usual trick to ease gradient flow early in
// training).
func NewLSTMCell(name string, inSize, hidden int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{
		InSize: inSize,
		Hidden: hidden,
		Wx:     NewParam(name+".Wx", 4*hidden, inSize),
		Wh:     NewParam(name+".Wh", 4*hidden, hidden),
		B:      NewParam(name+".b", 4*hidden, 1),
	}
	c.Wx.InitXavier(rng)
	c.Wh.InitXavier(rng)
	for i := hidden; i < 2*hidden; i++ {
		c.B.Value.Data[i] = 1 // forget gate bias
	}
	return c
}

// Params returns the cell's trainable parameters.
func (c *LSTMCell) Params() Params { return Params{c.Wx, c.Wh, c.B} }

// LSTMState is the recurrent state (h, c) carried between steps.
type LSTMState struct {
	H, C []float64
}

// NewLSTMState returns a zero state for the cell.
func (c *LSTMCell) NewLSTMState() LSTMState {
	return LSTMState{H: make([]float64, c.Hidden), C: make([]float64, c.Hidden)}
}

// NewLSTMStateScratch returns a zero state backed by the arena.
func (c *LSTMCell) NewLSTMStateScratch(s *Scratch) LSTMState {
	return LSTMState{H: s.VecZero(c.Hidden), C: s.VecZero(c.Hidden)}
}

// Clone deep-copies the state.
func (s LSTMState) Clone() LSTMState {
	h := make([]float64, len(s.H))
	cc := make([]float64, len(s.C))
	copy(h, s.H)
	copy(cc, s.C)
	return LSTMState{H: h, C: cc}
}

// CloneScratch deep-copies the state into arena-backed buffers.
func (s LSTMState) CloneScratch(sc *Scratch) LSTMState {
	return LSTMState{H: sc.VecCopy(s.H), C: sc.VecCopy(s.C)}
}

// LSTMCache stores one step's intermediates for BPTT.
type LSTMCache struct {
	x            []float64
	hPrev, cPrev []float64
	i, f, g, o   []float64
	c, tanhC     []float64
}

// Step advances the cell by one time step, returning the new state and the
// cache needed for the backward pass.
func (c *LSTMCell) Step(x []float64, prev LSTMState) (LSTMState, *LSTMCache) {
	return c.StepScratch(nil, x, prev)
}

// StepScratch is Step drawing every intermediate from the arena: in steady
// state (after the arena has grown to the step's working set) it performs
// zero heap allocations. The returned state and cache are arena-backed and
// die at the next s.Reset. The cache also retains x and prev, so those must
// outlive the backward pass as usual. It is Sequence's one-step case,
// which packs nothing: both products run on MulVecInto.
func (c *LSTMCell) StepScratch(s *Scratch, x []float64, prev LSTMState) (LSTMState, *LSTMCache) {
	var cache [1]*LSTMCache
	next := c.Sequence(s, LSTMPanels{}, Mat{Rows: 1, Cols: len(x), Data: x}, Mat{}, prev, cache[:])
	return next, cache[0]
}

// seqPackMinSteps is the shortest pass Sequence packs the weights for. A
// pack of Wh costs about five Go matrix-vector products, and each step on
// the panels saves most of two.
const seqPackMinSteps = 6

// Sequence is the one forward body of the cell: it runs the rows of x
// (steps x InSize) from s0 and returns the final state. Row t of hs
// (steps x Hidden) receives step t's hidden state; a zero hs is drawn
// from s. With caches non-nil (steps long), caches[t] receives step t's
// cache for the backward pass; without, no cache is built.
//
// w is a pack of the cell's weights (PackPanels). With the zero
// LSTMPanels a pass of at least seqPackMinSteps steps packs its own from
// s, where the kernels are on. On a pack Wx·x runs for every step before
// the recurrence, on panelMul8, and each step's Wh·h on panelMul1;
// without one both run on MulVecInto, with the same bits. The gates are
// activated in place of Wx·x, which the cache keeps as i, f, g and o.
// Every buffer comes from s; x, s0 and hs must outlive the backward pass.
func (c *LSTMCell) Sequence(s *Scratch, w LSTMPanels, x, hs Mat, s0 LSTMState, caches []*LSTMCache) LSTMState {
	h, steps := c.Hidden, x.Rows
	if x.Cols != c.InSize || hs.Data != nil && (hs.Rows != steps || hs.Cols != h) || caches != nil && len(caches) != steps {
		panic(fmt.Sprintf("nn: Sequence of %d inputs of %d into %dx%d states with %d caches, cell %d -> %d",
			x.Rows, x.Cols, hs.Rows, hs.Cols, len(caches), c.InSize, h))
	}
	if w.wx == nil && steps >= seqPackMinSteps {
		w = c.PackPanels(s)
	}
	if hs.Data == nil {
		hs = Mat{Rows: steps, Cols: h, Data: s.Vec(steps * h)}
	}
	var pre Mat
	if w.wx != nil {
		pre = Mat{Rows: steps, Cols: 4 * h, Data: s.Vec(steps * 4 * h)}
		c.Wx.Value.mulVecsPacked(w.wx, x, pre)
	}
	preH := s.Vec(4 * h)
	state := s0
	for t := 0; t < steps; t++ {
		xt := x.Row(t)
		var gates []float64
		if pre.Data != nil {
			gates = pre.Row(t)
		} else {
			gates = c.Wx.Value.MulVecInto(xt, s.Vec(4*h))
		}
		c.Wh.Value.mulVecsPacked(w.wh, Mat{Rows: 1, Cols: h, Data: state.H}, Mat{Rows: 1, Cols: 4 * h, Data: preH})
		next := LSTMState{H: hs.Row(t), C: s.Vec(h)}
		tanhC := next.H // dead without a cache: h overwrites it
		if caches != nil {
			tanhC = s.Vec(h)
			cache := s.lstmCache()
			cache.x, cache.hPrev, cache.cPrev = xt, state.H, state.C
			cache.i, cache.f, cache.g, cache.o = gates[:h], gates[h:2*h], gates[2*h:3*h], gates[3*h:]
			cache.c, cache.tanhC = next.C, tanhC
			caches[t] = cache
		}
		gateRow(gates, preH, c.B.Value.Data, state.C, gates, next.C, tanhC, next.H)
		state = next
	}
	return state
}

// gateRow is the one gate body of Sequence and StepBatch, for one
// sequence of H = len(h) cells: pre holds Wx·x and preH Wh·h, 4H each in
// the gate layout, and cPrev the cell state. It leaves the activated
// gates in gates, the new cell state in c, tanh(c) in tanhC and the new
// hidden state in h; gates may be pre, c may be cPrev and tanhC may be h.
// Where useSIMD holds gateLanes computes the row with the same bits,
// consuming pre and preH; a row with a sigmoid gate whose exp it refuses
// (|x| > 708, NaN) comes back untouched and runs here.
func gateRow(pre, preH, bias, cPrev, gates, c, tanhC, h []float64) {
	n := len(h)
	pre, preH, bias, gates = pre[:4*n], preH[:4*n], bias[:4*n], gates[:4*n]
	cPrev, c, tanhC = cPrev[:n], c[:n], tanhC[:n]
	if n > 0 && useSIMD && gateLanes(&pre[0], &preH[0], &bias[0], &cPrev[0], &gates[0], &c[0], &tanhC[0], &h[0], n) {
		return
	}
	for j := range h {
		ig := sigmoid(pre[j] + (preH[j] + bias[j]))
		fg := sigmoid(pre[n+j] + (preH[n+j] + bias[n+j]))
		gg := tanh(pre[2*n+j] + (preH[2*n+j] + bias[2*n+j]))
		og := sigmoid(pre[3*n+j] + (preH[3*n+j] + bias[3*n+j]))
		gates[j], gates[n+j], gates[2*n+j], gates[3*n+j] = ig, fg, gg, og
		c[j] = fg*cPrev[j] + ig*gg
		tanhC[j] = tanh(c[j])
		h[j] = og * tanhC[j]
	}
}

// LSTMBatch is the state of n independent sequences that StepBatch
// advances in lockstep: row b of H and C is sequence b's hidden and cell
// state. The pre-activation rows are drawn with the batch, so stepping it
// any number of times draws nothing more.
type LSTMBatch struct {
	H, C      Mat // n x Hidden
	pre, preH Mat // n x 4·Hidden
}

// NewLSTMBatch returns n zero states backed by the arena.
func (c *LSTMCell) NewLSTMBatch(s *Scratch, n int) LSTMBatch {
	return LSTMBatch{
		H: s.Mat(n, c.Hidden), C: s.Mat(n, c.Hidden),
		pre: s.Mat(n, 4*c.Hidden), preH: s.Mat(n, 4*c.Hidden),
	}
}

// StepBatch advances every sequence of the batch one step, row b of x (n x
// InSize) being sequence b's input. Each row of H and C ends with exactly
// the bits StepScratch gives that sequence alone: the two matrix products
// run on mulVecsPacked over w (PackPanels; the zero LSTMPanels runs
// mulVecsInto), and each row's gates on gateRow. It builds no cache, so it
// serves inference only.
func (c *LSTMCell) StepBatch(b LSTMBatch, x Mat, w LSTMPanels) {
	c.Wx.Value.mulVecsPacked(w.wx, x, b.pre)
	c.Wh.Value.mulVecsPacked(w.wh, b.H, b.preH)
	for r := 0; r < x.Rows; r++ {
		pre, hr, cr := b.pre.Row(r), b.H.Row(r), b.C.Row(r)
		gateRow(pre, b.preH.Row(r), c.B.Value.Data, cr, pre, cr, hr, hr)
	}
}

// StepBackward backpropagates one step: given gradients dh and dc flowing
// into the step's output state, it accumulates parameter gradients and
// returns the gradients for the input and the previous state.
func (c *LSTMCell) StepBackward(cache *LSTMCache, dh, dc []float64) (dx []float64, dPrev LSTMState) {
	return c.StepBackwardScratch(nil, cache, dh, dc)
}

// StepBackwardScratch is StepBackward drawing every intermediate from the
// arena; zero heap allocations in steady state. It is
// BackwardSequenceScratch's one-step case, which packs nothing.
func (c *LSTMCell) StepBackwardScratch(s *Scratch, cache *LSTMCache, dh, dc []float64) (dx []float64, dPrev LSTMState) {
	caches := [1]*LSTMCache{cache}
	dxs, dPrev := c.BackwardSequenceScratch(s, caches[:], Mat{}, LSTMState{H: dh, C: dc})
	return dxs.Data, dPrev
}

// RunSequence feeds a sequence of inputs through the cell starting from
// state s0, returning the hidden states per step and the caches needed for
// BackwardSequence. It is Sequence on heap buffers.
func (c *LSTMCell) RunSequence(xs [][]float64, s0 LSTMState) (hs [][]float64, final LSTMState, caches []*LSTMCache) {
	x := NewMat(len(xs), c.InSize)
	for t, xt := range xs {
		if len(xt) != c.InSize {
			panic(fmt.Sprintf("nn: RunSequence input %d has %d elements, want %d", t, len(xt), c.InSize))
		}
		copy(x.Row(t), xt)
	}
	states := NewMat(len(xs), c.Hidden)
	caches = make([]*LSTMCache, len(xs))
	final = c.Sequence(nil, LSTMPanels{}, x, states, s0, caches)
	hs = make([][]float64, len(xs))
	for t := range hs {
		hs[t] = states.Row(t)
	}
	return hs, final, caches
}

// BackwardSequence is BackwardSequenceScratch on heap buffers, for a
// sequence processed with RunSequence: dhs[t] is the loss's gradient on
// step t's hidden state (a nil dhs or row counts as zeros), and it returns
// the input gradients per step and the gradient on the initial state.
func (c *LSTMCell) BackwardSequence(caches []*LSTMCache, dhs [][]float64, dFinal LSTMState) (dxs [][]float64, dS0 LSTMState) {
	var d Mat
	if dhs != nil {
		d = NewMat(len(caches), c.Hidden)
		for t, row := range dhs {
			copy(d.Row(t), row)
		}
	}
	x, dS0 := c.BackwardSequenceScratch(nil, caches, d, dFinal)
	dxs = make([][]float64, len(caches))
	for t := range dxs {
		dxs[t] = x.Row(t)
	}
	return dxs, dS0
}

// BackwardSequenceScratch is the one backward body of the cell: it
// backpropagates from the last of the steps whose caches Sequence left to
// the first. Row t of dhs (steps x Hidden; the zero Mat for none) is the
// loss's gradient on step t's hidden state and dFinal (nil H or C for
// none) the final state's. It accumulates the parameter gradients and
// returns the input gradients as the rows of dxs (steps x InSize) and the
// gradient on the initial state; every buffer comes from s.
//
// Where useSIMD holds, a pass of at least seqPackMinSteps steps packs Whᵀ
// and Wxᵀ from s: each step's Whᵀ·dPre runs on panelMul1 and, after the
// recurrence, Wxᵀ·dPre for every step on panelMul8. A dPre row holding a
// zero (a saturated gate) runs MulVecTInto, which skips it, so the bits
// never depend on the kernel.
func (c *LSTMCell) BackwardSequenceScratch(s *Scratch, caches []*LSTMCache, dhs Mat, dFinal LSTMState) (dxs Mat, dS0 LSTMState) {
	h, steps := c.Hidden, len(caches)
	if dhs.Data != nil && (dhs.Rows != steps || dhs.Cols != h) {
		panic(fmt.Sprintf("nn: BackwardSequence of %d steps with %dx%d hidden-state gradients, hidden %d", steps, dhs.Rows, dhs.Cols, h))
	}
	var wxT, whT []float64
	if useSIMD && steps >= seqPackMinSteps {
		wxT, whT = c.Wx.Value.packPanelsT(s), c.Wh.Value.packPanelsT(s)
	}
	dPre := Mat{Rows: steps, Cols: 4 * h, Data: s.Vec(steps * 4 * h)}
	dh, dc := s.VecZero(h), s.VecZero(h)
	copy(dh, dFinal.H)
	copy(dc, dFinal.C)
	for t := steps - 1; t >= 0; t-- {
		if dhs.Data != nil {
			for j, g := range dhs.Row(t) {
				dh[j] += g
			}
		}
		cache, dp := caches[t], dPre.Row(t)
		dcPrev := s.Vec(h)
		for j := 0; j < h; j++ {
			do := dh[j] * cache.tanhC[j]
			dcj := dc[j] + dh[j]*cache.o[j]*(1-cache.tanhC[j]*cache.tanhC[j])
			di := dcj * cache.g[j]
			df := dcj * cache.cPrev[j]
			dg := dcj * cache.i[j]
			dcPrev[j] = dcj * cache.f[j]

			dp[j] = di * cache.i[j] * (1 - cache.i[j])
			dp[h+j] = df * cache.f[j] * (1 - cache.f[j])
			dp[2*h+j] = dg * (1 - cache.g[j]*cache.g[j])
			dp[3*h+j] = do * cache.o[j] * (1 - cache.o[j])
		}

		c.Wx.grad().AddOuter(dp, cache.x)
		c.Wh.grad().AddOuter(dp, cache.hPrev)
		db := c.B.grad().Data
		for i, g := range dp {
			db[i] += g
		}
		dhPrev := s.Vec(h)
		c.Wh.Value.mulVecsT(whT, Mat{Rows: 1, Cols: 4 * h, Data: dp}, Mat{Rows: 1, Cols: h, Data: dhPrev})
		dh, dc = dhPrev, dcPrev
	}
	dxs = Mat{Rows: steps, Cols: c.InSize, Data: s.Vec(steps * c.InSize)}
	c.Wx.Value.mulVecsT(wxT, dPre, dxs)
	return dxs, LSTMState{H: dh, C: dc}
}
