// Package dist implements the probability distributions used by the
// probabilistic workload forecasters: Gaussian and Student-t parametric
// distributions (the paper's DeepAR head uses Student-t for its heavier
// tails), and sample quantiles of forecast sample paths.
//
// DeepAR's quantiles come from ancestral sampling of its emissions, so a
// Student-t needs only seeded sampling; the Gaussian also has its
// closed-form quantile, which ARIMA's intervals use.
package dist

import (
	"math"
	"math/rand"
)

const sqrt2 = 1.4142135623730951

// Normal is the Gaussian distribution N(Mu, Sigma^2).
type Normal struct {
	Mu, Sigma float64
}

// NewNormal returns a Normal with the given mean and standard deviation.
// Sigma is floored at a tiny positive value to keep densities finite.
func NewNormal(mu, sigma float64) Normal {
	if sigma < 1e-12 {
		sigma = 1e-12
	}
	return Normal{Mu: mu, Sigma: sigma}
}

// Quantile returns the p-th Gaussian quantile using the inverse error
// function.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*sqrt2*math.Erfinv(2*p-1)
}

// Sample draws from N(Mu, Sigma^2).
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// StudentT is the location-scale Student-t distribution with Nu degrees of
// freedom, location Mu and scale Sigma. Its longer tails make it robust to
// workload outliers, which is why the paper's DeepAR variant emits it.
type StudentT struct {
	Nu, Mu, Sigma float64
}

// NewStudentT returns a StudentT with the given degrees of freedom,
// location and scale. Nu is floored slightly above 1 and Sigma at a tiny
// positive value.
func NewStudentT(nu, mu, sigma float64) StudentT {
	if nu < 1.01 {
		nu = 1.01
	}
	if sigma < 1e-12 {
		sigma = 1e-12
	}
	return StudentT{Nu: nu, Mu: mu, Sigma: sigma}
}

// Sample draws from the Student-t via the normal/chi-square representation
// T = Z / sqrt(V/Nu), V ~ ChiSquare(Nu).
func (t StudentT) Sample(rng *rand.Rand) float64 {
	z := rng.NormFloat64()
	v := sampleGamma(rng, t.Nu/2, 2) // ChiSquare(nu) = Gamma(nu/2, scale 2)
	return t.Mu + t.Sigma*z/math.Sqrt(v/t.Nu)
}

// sampleGamma draws from Gamma(shape, scale) using Marsaglia-Tsang, with
// the standard boost for shape < 1.
func sampleGamma(rng *rand.Rand, shape, scale float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return sampleGamma(rng, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}
