package dist

import "math"

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
