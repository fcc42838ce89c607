package nn

import "math/rand"

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
// outlive the backward pass as usual.
func (c *LSTMCell) StepScratch(s *Scratch, x []float64, prev LSTMState) (LSTMState, *LSTMCache) {
	h := c.Hidden
	pre := c.Wx.Value.MulVecInto(x, s.Vec(4*h))
	preH := c.Wh.Value.MulVecInto(prev.H, s.Vec(4*h))
	cache := s.lstmCache()
	cache.x, cache.hPrev, cache.cPrev = x, prev.H, prev.C
	gates := s.Vec(4 * h)
	cache.i, cache.f, cache.g, cache.o = gates[:h], gates[h:2*h], gates[2*h:3*h], gates[3*h:]
	cache.c, cache.tanhC = s.Vec(h), s.Vec(h)
	newH := s.Vec(h)
	gateRow(pre, preH, c.B.Value.Data, prev.C, gates, cache.c, cache.tanhC, newH)
	return LSTMState{H: newH, C: cache.c}, cache
}

// gateRow is the one gate body of StepScratch and StepBatch, for one
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
// arena; zero heap allocations in steady state.
func (c *LSTMCell) StepBackwardScratch(s *Scratch, cache *LSTMCache, dh, dc []float64) (dx []float64, dPrev LSTMState) {
	h := c.Hidden
	dPre := s.Vec(4 * h)
	dcPrev := s.Vec(h)
	for j := 0; j < h; j++ {
		do := dh[j] * cache.tanhC[j]
		dcj := dc[j] + dh[j]*cache.o[j]*(1-cache.tanhC[j]*cache.tanhC[j])
		di := dcj * cache.g[j]
		df := dcj * cache.cPrev[j]
		dg := dcj * cache.i[j]
		dcPrev[j] = dcj * cache.f[j]

		dPre[j] = di * cache.i[j] * (1 - cache.i[j])
		dPre[h+j] = df * cache.f[j] * (1 - cache.f[j])
		dPre[2*h+j] = dg * (1 - cache.g[j]*cache.g[j])
		dPre[3*h+j] = do * cache.o[j] * (1 - cache.o[j])
	}

	c.Wx.grad().AddOuter(dPre, cache.x)
	c.Wh.grad().AddOuter(dPre, cache.hPrev)
	db := c.B.grad().Data
	for i, g := range dPre {
		db[i] += g
	}

	dx = c.Wx.Value.MulVecTInto(dPre, s.Vec(c.InSize))
	dhPrev := c.Wh.Value.MulVecTInto(dPre, s.Vec(h))
	return dx, LSTMState{H: dhPrev, C: dcPrev}
}

// RunSequence feeds a sequence of inputs through the cell starting from
// state s0, returning the hidden states per step and the caches needed for
// BackwardSequence.
func (c *LSTMCell) RunSequence(xs [][]float64, s0 LSTMState) (hs [][]float64, final LSTMState, caches []*LSTMCache) {
	return c.RunSequenceScratch(nil, xs, s0)
}

// RunSequenceScratch is RunSequence with arena-backed steps. The slice
// headers still come from the heap (one allocation each per sequence); the
// per-step working set does not.
func (c *LSTMCell) RunSequenceScratch(s *Scratch, xs [][]float64, s0 LSTMState) (hs [][]float64, final LSTMState, caches []*LSTMCache) {
	hs = make([][]float64, len(xs))
	caches = make([]*LSTMCache, len(xs))
	state := s0
	for t, x := range xs {
		state, caches[t] = c.StepScratch(s, x, state)
		hs[t] = state.H
	}
	return hs, state, caches
}

// BackwardSequence backpropagates through a sequence processed with
// RunSequence. dhs[t] is the gradient flowing into the hidden state at step
// t from the loss; dFinal is any extra gradient on the final state (e.g.
// from a decoder that consumed it). It returns input gradients per step and
// the gradient on the initial state.
func (c *LSTMCell) BackwardSequence(caches []*LSTMCache, dhs [][]float64, dFinal LSTMState) (dxs [][]float64, dS0 LSTMState) {
	return c.BackwardSequenceScratch(nil, caches, dhs, dFinal)
}

// BackwardSequenceScratch is BackwardSequence with arena-backed steps.
func (c *LSTMCell) BackwardSequenceScratch(s *Scratch, caches []*LSTMCache, dhs [][]float64, dFinal LSTMState) (dxs [][]float64, dS0 LSTMState) {
	n := len(caches)
	dxs = make([][]float64, n)
	dh := s.VecZero(c.Hidden)
	dc := s.VecZero(c.Hidden)
	if dFinal.H != nil {
		copy(dh, dFinal.H)
	}
	if dFinal.C != nil {
		copy(dc, dFinal.C)
	}
	for t := n - 1; t >= 0; t-- {
		if dhs != nil && dhs[t] != nil {
			for j := range dh {
				dh[j] += dhs[t][j]
			}
		}
		var dPrev LSTMState
		dxs[t], dPrev = c.StepBackwardScratch(s, caches[t], dh, dc)
		dh, dc = dPrev.H, dPrev.C
	}
	return dxs, LSTMState{H: dh, C: dc}
}
