package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// MultiHeadAttention is standard multi-head scaled dot-product
// self-attention with an output projection: Q, K, V projections are split
// into Heads column blocks, each head attends independently (optionally
// causally), the heads are concatenated and projected by Wo. With one head
// it reduces to single-head attention plus an output projection.
type MultiHeadAttention struct {
	Dim, Heads     int
	Wq, Wk, Wv, Wo *Param // all (Dim x Dim)
	Causal         bool
}

// NewMultiHeadAttention creates the block; dim must be divisible by heads.
func NewMultiHeadAttention(name string, dim, heads int, causal bool, rng *rand.Rand) (*MultiHeadAttention, error) {
	if heads < 1 || dim%heads != 0 {
		return nil, fmt.Errorf("nn: dim %d not divisible by %d heads", dim, heads)
	}
	a := &MultiHeadAttention{
		Dim: dim, Heads: heads, Causal: causal,
		Wq: NewParam(name+".Wq", dim, dim),
		Wk: NewParam(name+".Wk", dim, dim),
		Wv: NewParam(name+".Wv", dim, dim),
		Wo: NewParam(name+".Wo", dim, dim),
	}
	a.Wq.InitXavier(rng)
	a.Wk.InitXavier(rng)
	a.Wv.InitXavier(rng)
	a.Wo.InitXavier(rng)
	return a, nil
}

// Params returns the trainable projections.
func (a *MultiHeadAttention) Params() Params { return Params{a.Wq, a.Wk, a.Wv, a.Wo} }

// mhaCache stores forward intermediates per head.
type mhaCache struct {
	x       Mat
	q, k, v Mat
	attn    []Mat // per head, (T x T)
	concat  Mat   // (T x Dim) pre-output-projection
}

// Apply runs the block over a (T x Dim) sequence, returning the output and
// a backward closure that accumulates parameter gradients and returns the
// input gradient.
func (a *MultiHeadAttention) Apply(x Mat) (Mat, func(Mat) Mat) {
	tlen := x.Rows
	hd := a.Dim / a.Heads
	c := &mhaCache{
		x: x,
		q: MatMulBT(x, a.Wq.Value),
		k: MatMulBT(x, a.Wk.Value),
		v: MatMulBT(x, a.Wv.Value),
	}
	c.attn = make([]Mat, a.Heads)
	c.concat = NewMat(tlen, a.Dim)
	scale := 1 / math.Sqrt(float64(hd))

	for h := 0; h < a.Heads; h++ {
		off := h * hd
		attn := NewMat(tlen, tlen)
		for i := 0; i < tlen; i++ {
			limit := tlen
			if a.Causal {
				limit = i + 1
			}
			row := attn.Row(i)
			qi := c.q.Row(i)[off : off+hd]
			max := math.Inf(-1)
			for j := 0; j < limit; j++ {
				kj := c.k.Row(j)[off : off+hd]
				s := 0.0
				for d := 0; d < hd; d++ {
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
		}
		c.attn[h] = attn
		// concat[:, off:off+hd] = attn * v[:, off:off+hd].
		for i := 0; i < tlen; i++ {
			orow := c.concat.Row(i)[off : off+hd]
			arow := attn.Row(i)
			for j := 0; j < tlen; j++ {
				w := arow[j]
				if w == 0 {
					continue
				}
				vrow := c.v.Row(j)[off : off+hd]
				for d := 0; d < hd; d++ {
					orow[d] += w * vrow[d]
				}
			}
		}
	}
	out := MatMulBT(c.concat, a.Wo.Value)

	backward := func(dOut Mat) Mat { return a.backward(c, dOut) }
	return out, backward
}

func (a *MultiHeadAttention) backward(c *mhaCache, dOut Mat) Mat {
	tlen := c.x.Rows
	hd := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(hd))

	// out = concat Wo^T: dWo = dOut^T concat; dConcat = dOut Wo.
	gWo := MatMulAT(dOut, c.concat)
	for i := range gWo.Data {
		a.Wo.Grad.Data[i] += gWo.Data[i]
	}
	dConcat := MatMul(dOut, a.Wo.Value)

	dQ := NewMat(tlen, a.Dim)
	dK := NewMat(tlen, a.Dim)
	dV := NewMat(tlen, a.Dim)

	for h := 0; h < a.Heads; h++ {
		off := h * hd
		attn := c.attn[h]
		// dAttn = dConcat_h * v_h^T ; dV_h += attn^T dConcat_h.
		dAttn := NewMat(tlen, tlen)
		for i := 0; i < tlen; i++ {
			di := dConcat.Row(i)[off : off+hd]
			for j := 0; j < tlen; j++ {
				vj := c.v.Row(j)[off : off+hd]
				s := 0.0
				for d := 0; d < hd; d++ {
					s += di[d] * vj[d]
				}
				dAttn.Set(i, j, s)
			}
			arow := attn.Row(i)
			for j := 0; j < tlen; j++ {
				w := arow[j]
				if w == 0 {
					continue
				}
				dvj := dV.Row(j)[off : off+hd]
				for d := 0; d < hd; d++ {
					dvj[d] += w * di[d]
				}
			}
		}
		// Softmax backward per row.
		for i := 0; i < tlen; i++ {
			arow := attn.Row(i)
			drow := dAttn.Row(i)
			dot := 0.0
			for j := 0; j < tlen; j++ {
				dot += drow[j] * arow[j]
			}
			qi := c.q.Row(i)[off : off+hd]
			dqi := dQ.Row(i)[off : off+hd]
			for j := 0; j < tlen; j++ {
				ds := arow[j] * (drow[j] - dot) * scale
				if ds == 0 {
					continue
				}
				kj := c.k.Row(j)[off : off+hd]
				dkj := dK.Row(j)[off : off+hd]
				for d := 0; d < hd; d++ {
					dqi[d] += ds * kj[d]
					dkj[d] += ds * qi[d]
				}
			}
		}
	}

	// Projections: q = x Wq^T, so dWq += dQ^T x and dx += dQ Wq.
	accum := func(w *Param, dProj Mat) {
		g := MatMulAT(dProj, c.x)
		for i := range g.Data {
			w.Grad.Data[i] += g.Data[i]
		}
	}
	accum(a.Wq, dQ)
	accum(a.Wk, dK)
	accum(a.Wv, dV)

	dX := MatMul(dQ, a.Wq.Value)
	dk := MatMul(dK, a.Wk.Value)
	dv := MatMul(dV, a.Wv.Value)
	for i := range dX.Data {
		dX.Data[i] += dk.Data[i] + dv.Data[i]
	}
	return dX
}

// Apply gives the single-head Attention the same closure-style interface
// as MultiHeadAttention, so callers can switch between them.
func (a *Attention) Apply(x Mat) (Mat, func(Mat) Mat) {
	out, cache := a.Forward(x)
	return out, func(dOut Mat) Mat { return a.Backward(cache, dOut) }
}

// SelfAttention is the common interface of the attention blocks.
type SelfAttention interface {
	Apply(x Mat) (Mat, func(Mat) Mat)
	Params() Params
}

var (
	_ SelfAttention = (*Attention)(nil)
	_ SelfAttention = (*MultiHeadAttention)(nil)
)
