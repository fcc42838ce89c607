package forecast

import (
	"math"
	"testing"
)

// nllValue recomputes the negative log-likelihood that nllGrad
// differentiates, from the raw head outputs.
func nllValue(d *DeepAR, out []float64, y float64) float64 {
	return -d.emissionFrom(out).LogPDF(y)
}

// TestNLLGradMatchesFiniteDifferences checks the hand-derived Student-t
// and Gaussian NLL gradients against numerical differentiation — the same
// style of check the nn package applies to its layers.
func TestNLLGradMatchesFiniteDifferences(t *testing.T) {
	const eps = 1e-6
	cases := []struct {
		emission Emission
		out      []float64
		y        float64
	}{
		{EmitStudentT, []float64{0.3, -0.2, 0.5}, 0.8},
		{EmitStudentT, []float64{-1.1, 0.7, -0.4}, -2.0},
		{EmitStudentT, []float64{0.0, 0.0, 0.0}, 0.1},
		{EmitStudentT, []float64{2.0, 1.5, 3.0}, 1.9},
		{EmitGaussian, []float64{0.3, -0.2}, 0.8},
		{EmitGaussian, []float64{-1.1, 0.7}, -2.0},
		{EmitGaussian, []float64{0.5, 2.0}, 0.5},
	}
	for ci, c := range cases {
		d := NewDeepAR(DeepARConfig{Emission: c.emission})
		out := append([]float64{}, c.out...)
		analytic := d.nllGrad(out, c.y)
		for j := range out {
			orig := out[j]
			out[j] = orig + eps
			lp := nllValue(d, out, c.y)
			out[j] = orig - eps
			lm := nllValue(d, out, c.y)
			out[j] = orig
			numeric := (lp - lm) / (2 * eps)
			scale := math.Max(1, math.Abs(numeric))
			if math.Abs(numeric-analytic[j])/scale > 1e-4 {
				t.Errorf("case %d (%s) out[%d]: analytic %v vs numeric %v",
					ci, c.emission, j, analytic[j], numeric)
			}
		}
	}
}

// TestEmissionFromShapes verifies the head-output mapping: positive scale,
// nu floored above 2 so the Student-t variance exists.
func TestEmissionFromShapes(t *testing.T) {
	d := NewDeepAR(DeepARConfig{Emission: EmitStudentT})
	e := d.emissionFrom([]float64{1.5, -50, -50})
	if e.gaussian {
		t.Fatalf("emission %+v is gaussian", e)
	}
	st := e.studentT
	if st.Sigma <= 0 {
		t.Errorf("sigma = %v", st.Sigma)
	}
	if st.Nu <= 2 {
		t.Errorf("nu = %v, want > 2 so variance exists", st.Nu)
	}
	if st.Mu != 1.5 {
		t.Errorf("mu = %v", st.Mu)
	}

	g := NewDeepAR(DeepARConfig{Emission: EmitGaussian})
	ne := g.emissionFrom([]float64{-0.5, 0.2})
	if !ne.gaussian {
		t.Fatalf("emission %+v is not gaussian", ne)
	}
	n := ne.normal
	if n.Sigma <= 0 || n.Mu != -0.5 {
		t.Errorf("normal = %+v", n)
	}
}
