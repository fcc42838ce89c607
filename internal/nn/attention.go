package nn

import (
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

// Forward runs attention over a (T x Dim) sequence and returns the
// attended (T x Dim) output.
func (a *Attention) Forward(x Mat) (Mat, *AttnCache) {
	return a.ForwardScratch(nil, x)
}

// ForwardScratch is Forward with the projections, weights, output and
// cache drawn from the arena; zero heap allocations in steady state.
func (a *Attention) ForwardScratch(s *Scratch, x Mat) (Mat, *AttnCache) {
	tlen := x.Rows
	q, k, v := s.Mat(tlen, a.Dim), s.Mat(tlen, a.Dim), s.Mat(tlen, a.Dim)
	matMulBTInto(q, x, a.Wq.Value)
	matMulBTInto(k, x, a.Wk.Value)
	matMulBTInto(v, x, a.Wv.Value)

	scale := 1 / math.Sqrt(float64(a.Dim))
	attn := s.Mat(tlen, tlen)
	for i := 0; i < tlen; i++ {
		limit := tlen
		if a.Causal {
			limit = i + 1
		}
		row := attn.Row(i)
		qi := q.Row(i)
		max := math.Inf(-1)
		for j := 0; j < limit; j++ {
			s := 0.0
			kj := k.Row(j)
			for d := 0; d < a.Dim; d++ {
				s += qi[d] * kj[d]
			}
			row[j] = s * scale
			if row[j] > max {
				max = row[j]
			}
		}
		sum := 0.0
		for j := 0; j < limit; j++ {
			row[j] = math.Exp(row[j] - max)
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

// Backward consumes the upstream gradient dOut (T x Dim), accumulates
// projection gradients, and returns the gradient on the input sequence.
func (a *Attention) Backward(c *AttnCache, dOut Mat) Mat {
	tlen := c.x.Rows
	scale := 1 / math.Sqrt(float64(a.Dim))

	// out = attn * v.
	dAttn := MatMulBT(dOut, c.v)
	dV := MatMulAT(c.attn, dOut)

	// Softmax backward per row: dscore = attn .* (dAttn - sum(dAttn .* attn)).
	dScores := NewMat(tlen, tlen)
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
	dQ := MatMul(dScores, c.k)
	dK := MatMulAT(dScores, c.q)
	for i := range dQ.Data {
		dQ.Data[i] *= scale
	}
	for i := range dK.Data {
		dK.Data[i] *= scale
	}

	// Projections: q = x Wq^T, so dWq = dQ^T x and dx += dQ Wq.
	accumProj := func(w *Param, dProj Mat) {
		g := MatMulAT(dProj, c.x)
		for i := range g.Data {
			w.Grad.Data[i] += g.Data[i]
		}
	}
	accumProj(a.Wq, dQ)
	accumProj(a.Wk, dK)
	accumProj(a.Wv, dV)

	dX := MatMul(dQ, a.Wq.Value)
	dk := MatMul(dK, a.Wk.Value)
	dv := MatMul(dV, a.Wv.Value)
	for i := range dX.Data {
		dX.Data[i] += dk.Data[i] + dv.Data[i]
	}
	return dX
}
