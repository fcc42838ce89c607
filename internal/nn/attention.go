package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Attention is single-head scaled dot-product self-attention with an
// optional causal mask, the interpretable attention block at the heart of
// the Temporal Fusion Transformer decoder.
type Attention struct {
	Dim        int
	Wq, Wk, Wv *Param // (Dim x Dim) projections
	Causal     bool
}

// NewAttention creates an attention block over vectors of the given
// dimension. With causal=true position t may only attend to positions <= t.
func NewAttention(name string, dim int, causal bool, rng *rand.Rand) *Attention {
	a := &Attention{
		Dim:    dim,
		Wq:     NewParam(name+".Wq", dim, dim),
		Wk:     NewParam(name+".Wk", dim, dim),
		Wv:     NewParam(name+".Wv", dim, dim),
		Causal: causal,
	}
	a.Wq.InitXavier(rng)
	a.Wk.InitXavier(rng)
	a.Wv.InitXavier(rng)
	return a
}

// Params returns the trainable projections.
func (a *Attention) Params() Params { return Params{a.Wq, a.Wk, a.Wv} }

// AttnCache stores intermediates for the backward pass.
type AttnCache struct {
	x       Mat // (T x D) input
	q, k, v Mat // (T x D) projections
	attn    Mat // (T x T) softmax weights
}

// ForwardScratch runs attention over a (T x Dim) sequence and returns the
// attended (T x Dim) output, with the projections, weights, output and
// cache drawn from the arena; zero heap allocations in steady state.
func (a *Attention) ForwardScratch(s *Scratch, x Mat) (Mat, *AttnCache) {
	tlen := x.Rows
	q, k, v := s.Mat(tlen, a.Dim), s.Mat(tlen, a.Dim), s.Mat(tlen, a.Dim)
	project(s, q, x, a.Wq.Value)
	project(s, k, x, a.Wk.Value)
	project(s, v, x, a.Wv.Value)

	scale := 1 / math.Sqrt(float64(a.Dim))
	attn := s.Mat(tlen, tlen)
	a.scores(s, q, k, attn)
	for i := 0; i < tlen; i++ {
		limit := a.limit(i, tlen)
		row := attn.Row(i)
		max := math.Inf(-1)
		for j := 0; j < limit; j++ {
			row[j] *= scale
			if row[j] > max {
				max = row[j]
			}
		}
		for j := 0; j < limit; j++ {
			row[j] -= max
		}
		Exp(row[:limit])
		sum := 0.0
		for j := 0; j < limit; j++ {
			sum += row[j]
		}
		for j := 0; j < limit; j++ {
			row[j] /= sum
		}
		for j := limit; j < tlen; j++ {
			row[j] = 0
		}
	}
	out := s.Mat(tlen, a.Dim)
	matMulInto(out, attn, v)
	c := s.attnCache()
	c.x, c.q, c.k, c.v, c.attn = x, q, k, v, attn
	return out, c
}

// limit is how many positions query i of tlen attends to.
func (a *Attention) limit(i, tlen int) int {
	if a.Causal {
		return i + 1
	}
	return tlen
}

// project overwrites out with x·wᵀ, matMulBTInto's expression. Where
// useSIMD holds it runs as mulRowsInto on a transpose of w drawn from s,
// which is the same expression on the SIMD fold.
func project(s *Scratch, out, x, w Mat) {
	if !useSIMD {
		matMulBTInto(out, x, w)
		return
	}
	if x.Cols != w.Cols || out.Rows != x.Rows || out.Cols != w.Rows {
		panic(fmt.Sprintf("nn: projection dimension mismatch: %dx%d by (%dx%d)^T", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	wt := Mat{Rows: w.Cols, Cols: w.Rows, Data: s.Vec(len(w.Data))}
	for i := 0; i < w.Rows; i++ {
		for j, v := range w.Row(i) {
			wt.Data[j*wt.Cols+i] = v
		}
	}
	out.Zero()
	mulRowsInto(out, x.Data, x.Cols, 1, wt)
}

// scores writes into row i of attn the raw dots q_i·k_j, 0 + q_i[0]*k_j[0]
// + ... in order, of every key j that query i attends to; the rest of the
// row is left for the softmax to zero. Where useSIMD holds k is packed
// into panels from s, eight queries at a time run against the panels of
// the keys the last of them attends to, and the keys past the panels run
// here.
func (a *Attention) scores(s *Scratch, q, k, attn Mat) {
	tlen := q.Rows
	np := tlen / 4
	from := 0 // the first key computed here
	if useSIMD && np > 0 && a.Dim > 0 {
		panels := k.packPanels(s)
		for v := 0; v < tlen; v += 8 {
			n := min(8, tlen-v)
			keys := a.limit(v+n-1, tlen)
			panelVecs(panels, min(np, (keys+3)/4), a.Dim, q.Data[v*a.Dim:], a.Dim, n, attn.Data[v*tlen:], tlen)
		}
		from = 4 * np
	}
	for i := 0; i < tlen; i++ {
		qi, row := q.Row(i), attn.Row(i)
		for j := from; j < a.limit(i, tlen); j++ {
			sum := 0.0
			for d, kv := range k.rowOf(j, qi) {
				sum += qi[d] * kv
			}
			row[j] = sum
		}
	}
}

// BackwardScratch consumes the upstream gradient dOut (T x Dim),
// accumulates projection gradients, and returns the gradient on the input
// sequence, with every matrix drawn from the arena; dOut·Vᵀ runs as
// project, on a transpose of V.
func (a *Attention) BackwardScratch(s *Scratch, c *AttnCache, dOut Mat) Mat {
	tlen := c.x.Rows
	scale := 1 / math.Sqrt(float64(a.Dim))

	// out = attn * v.
	dAttn := s.Mat(tlen, tlen)
	project(s, dAttn, dOut, c.v)
	dV := matMulAT(s, c.attn, dOut)

	// Softmax backward per row: dscore = attn .* (dAttn - sum(dAttn .* attn)).
	dScores := s.Mat(tlen, tlen)
	for i := 0; i < tlen; i++ {
		arow := c.attn.Row(i)
		drow := dAttn.Row(i)
		dot := 0.0
		for j := 0; j < tlen; j++ {
			dot += drow[j] * arow[j]
		}
		srow := dScores.Row(i)
		for j := 0; j < tlen; j++ {
			srow[j] = arow[j] * (drow[j] - dot)
		}
	}

	// scores = scale * q k^T.
	dQ := matMul(s, dScores, c.k)
	dK := matMulAT(s, dScores, c.q)
	for i := range dQ.Data {
		dQ.Data[i] *= scale
	}
	for i := range dK.Data {
		dK.Data[i] *= scale
	}

	// Projections: q = x Wq^T, so dWq = dQ^T x and dx += dQ Wq.
	accumProj := func(w *Param, dProj Mat) {
		g := matMulAT(s, dProj, c.x)
		dw := w.grad().Data
		for i := range g.Data {
			dw[i] += g.Data[i]
		}
	}
	accumProj(a.Wq, dQ)
	accumProj(a.Wk, dK)
	accumProj(a.Wv, dV)

	dX := matMul(s, dQ, a.Wq.Value)
	dk := matMul(s, dK, a.Wk.Value)
	dv := matMul(s, dV, a.Wv.Value)
	for i := range dX.Data {
		dX.Data[i] += dk.Data[i] + dv.Data[i]
	}
	return dX
}
