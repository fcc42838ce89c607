package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba). The paper trains all
// neural forecasters with learning rate 1e-3, which is Adam's default here.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the standard betas and epsilon.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param][]float64{},
		v: map[*Param][]float64{},
	}
}

// Step applies one Adam update. It panics on a parameter without a
// gradient buffer: a step on it would be a step on no gradient at all.
func (o *Adam) Step(params Params) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		if p.Grad.Data == nil {
			panic("nn: Adam.Step on " + p.Name + ", which has no gradient buffer (call Params.ZeroGrads before the backward pass)")
		}
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, len(p.Value.Data))
			o.m[p] = m
		}
		v, ok := o.v[p]
		if !ok {
			v = make([]float64, len(p.Value.Data))
			o.v[p] = v
		}
		for i, g := range p.Grad.Data {
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			p.Value.Data[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
		}
	}
}
