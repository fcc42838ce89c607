package dist

import "math"

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Lentz's algorithm), as in
// Numerical Recipes. It underpins the Student-t CDF.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lgab, _ := math.Lgamma(a + b)
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lbeta := lga + lgb - lgab
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		mf := float64(m)
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Digamma computes the digamma function psi(x) for x > 0 using the
// recurrence psi(x) = psi(x+1) - 1/x to push the argument above 6 and then
// the asymptotic series. Needed for the gradient of the Student-t
// log-likelihood with respect to the degrees of freedom.
func Digamma(x float64) float64 {
	result := 0.0
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic expansion.
	result += math.Log(x) - 1/(2*x)
	inv2 := 1 / (x * x)
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2/240)))
	return result
}

// Softplus maps any real to a positive value: log(1 + exp(x)). Forecaster
// output heads use it to keep scale parameters positive, as the paper
// describes for the sigma output.
func Softplus(x float64) float64 {
	if x > 30 {
		return x // avoids overflow; softplus(x) ~ x for large x
	}
	return math.Log1p(math.Exp(x))
}

// SoftplusDeriv is the derivative of Softplus, i.e. the logistic sigmoid.
func SoftplusDeriv(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
