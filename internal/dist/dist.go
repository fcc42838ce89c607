// Package dist implements the probability distributions used by the
// probabilistic workload forecasters: Gaussian and Student-t parametric
// distributions (the paper's DeepAR head uses Student-t for its heavier
// tails), and sample quantiles of forecast sample paths.
//
// Every distribution exposes the density, log-density, CDF, quantile
// function and seeded sampling; quantiles are what the Robust Auto-Scaling
// Manager consumes.
package dist

import (
	"math"
	"math/rand"
)

const (
	sqrt2   = 1.4142135623730951
	log2Pi  = 1.8378770664093453
	sqrt2Pi = 2.5066282746310002
)

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

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// Variance returns Sigma^2.
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// PDF evaluates the Gaussian density at x.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * sqrt2Pi)
}

// LogPDF evaluates the Gaussian log-density at x.
func (n Normal) LogPDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return -0.5*z*z - math.Log(n.Sigma) - 0.5*log2Pi
}

// CDF evaluates the Gaussian CDF at x.
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*sqrt2))
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

// Mean returns Mu for Nu > 1 and NaN otherwise.
func (t StudentT) Mean() float64 {
	if t.Nu <= 1 {
		return math.NaN()
	}
	return t.Mu
}

// Variance returns Sigma^2 * Nu/(Nu-2) for Nu > 2, +Inf for 1 < Nu <= 2.
func (t StudentT) Variance() float64 {
	if t.Nu <= 1 {
		return math.NaN()
	}
	if t.Nu <= 2 {
		return math.Inf(1)
	}
	return t.Sigma * t.Sigma * t.Nu / (t.Nu - 2)
}

// PDF evaluates the Student-t density at x.
func (t StudentT) PDF(x float64) float64 {
	return math.Exp(t.LogPDF(x))
}

// LogPDF evaluates the Student-t log-density at x.
func (t StudentT) LogPDF(x float64) float64 {
	z := (x - t.Mu) / t.Sigma
	lg1, _ := math.Lgamma((t.Nu + 1) / 2)
	lg2, _ := math.Lgamma(t.Nu / 2)
	return lg1 - lg2 -
		0.5*math.Log(t.Nu*math.Pi) - math.Log(t.Sigma) -
		(t.Nu+1)/2*math.Log1p(z*z/t.Nu)
}

// CDF evaluates the Student-t CDF at x via the regularized incomplete beta
// function.
func (t StudentT) CDF(x float64) float64 {
	z := (x - t.Mu) / t.Sigma
	if z == 0 {
		return 0.5
	}
	// Use w = z^2/(nu+z^2) rather than the complement nu/(nu+z^2): the
	// latter cancels catastrophically for small |z|.
	w := z * z / (t.Nu + z*z)
	ib := RegIncBeta(0.5, t.Nu/2, w)
	if z > 0 {
		return 0.5 + 0.5*ib
	}
	return 0.5 - 0.5*ib
}

// Quantile returns the p-th Student-t quantile by numerically inverting the
// CDF (bisection refined with Newton steps).
func (t StudentT) Quantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Initial guess from the Gaussian quantile; widen the bracket until it
	// contains the target.
	guess := NewNormal(t.Mu, t.Sigma).Quantile(p)
	lo, hi := guess-t.Sigma, guess+t.Sigma
	for t.CDF(lo) > p {
		lo -= (hi - lo)
	}
	for t.CDF(hi) < p {
		hi += (hi - lo)
	}
	x := guess
	for i := 0; i < 100; i++ {
		c := t.CDF(x)
		if c > p {
			hi = x
		} else {
			lo = x
		}
		pdf := t.PDF(x)
		var next float64
		if pdf > 1e-300 {
			next = x - (c-p)/pdf // Newton step
		}
		if pdf <= 1e-300 || next <= lo || next >= hi {
			next = (lo + hi) / 2 // fall back to bisection
		}
		if math.Abs(next-x) < 1e-12*(1+math.Abs(x)) {
			return next
		}
		x = next
	}
	return x
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
