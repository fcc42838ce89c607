package nn

import (
	"math"
	"math/rand"
)

// Dense is a fully connected layer computing y = W x + b.
type Dense struct {
	In, Out int
	W, B    *Param
}

// NewDense creates a Dense layer with Xavier-initialized weights and zero
// biases.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", out, in),
		B:   NewParam(name+".b", out, 1),
	}
	d.W.InitXavier(rng)
	return d
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() Params { return Params{d.W, d.B} }

// DenseCache stores the forward input for the backward pass.
type DenseCache struct {
	x []float64
}

// Forward computes W x + b and returns the output plus a cache.
func (d *Dense) Forward(x []float64) ([]float64, *DenseCache) {
	return d.ForwardScratch(nil, x)
}

// ForwardScratch is Forward with the output and cache drawn from the
// arena; zero heap allocations in steady state.
func (d *Dense) ForwardScratch(s *Scratch, x []float64) ([]float64, *DenseCache) {
	y := d.W.Value.MulVecInto(x, s.Vec(d.Out))
	for i := range y {
		y[i] += d.B.Value.Data[i]
	}
	c := s.denseCache()
	c.x = x
	return y, c
}

// ForwardBatch is Forward over a batch: row b of y (n x Out) becomes
// W x_b + b for row b of x (n x In), with Forward's bits, and no cache is
// built, so it serves inference only.
func (d *Dense) ForwardBatch(x, y Mat) {
	d.W.Value.mulVecsInto(x, y)
	for b := 0; b < y.Rows; b++ {
		row := y.Row(b)
		for i := range row {
			row[i] += d.B.Value.Data[i]
		}
	}
}

// Backward accumulates dW and db and returns dx.
func (d *Dense) Backward(c *DenseCache, dy []float64) []float64 {
	return d.BackwardScratch(nil, c, dy)
}

// BackwardScratch is Backward with the input gradient drawn from the
// arena.
func (d *Dense) BackwardScratch(s *Scratch, c *DenseCache, dy []float64) []float64 {
	d.W.grad().AddOuter(dy, c.x)
	db := d.B.grad().Data
	for i, g := range dy {
		db[i] += g
	}
	return d.W.Value.MulVecTInto(dy, s.Vec(d.In))
}

// Activation is an element-wise nonlinearity with its derivative expressed
// in terms of the activation output (cheaper caches).
type Activation struct {
	Name  string
	F     func(float64) float64
	DFroY func(y float64) float64
}

// Tanh is the hyperbolic-tangent activation.
var Tanh = Activation{
	Name:  "tanh",
	F:     tanh,
	DFroY: func(y float64) float64 { return 1 - y*y },
}

// ActCache stores activation outputs for the backward pass.
type ActCache struct {
	y []float64
}

// Forward applies the activation element-wise.
func (a Activation) Forward(x []float64) ([]float64, *ActCache) {
	return a.ForwardScratch(nil, x)
}

// ForwardScratch is Forward with arena-backed output and cache.
func (a Activation) ForwardScratch(s *Scratch, x []float64) ([]float64, *ActCache) {
	y := s.Vec(len(x))
	for i, v := range x {
		y[i] = a.F(v)
	}
	c := s.actCache()
	c.y = y
	return y, c
}

// Backward returns dx given dy.
func (a Activation) Backward(c *ActCache, dy []float64) []float64 {
	return a.BackwardScratch(nil, c, dy)
}

// BackwardScratch is Backward with the input gradient drawn from the
// arena.
func (a Activation) BackwardScratch(s *Scratch, c *ActCache, dy []float64) []float64 {
	dx := s.Vec(len(dy))
	for i, g := range dy {
		dx[i] = g * a.DFroY(c.y[i])
	}
	return dx
}

func tanh(x float64) float64 { return math.Tanh(x) }

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
