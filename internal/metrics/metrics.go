// Package metrics implements the evaluation metrics of the paper's
// Section IV: weighted quantile loss, coverage, mean weighted quantile
// loss, MSE for point forecasts, the under-/over-provisioning rates used to
// judge auto-scaling strategies, and the uncertainty metric U of
// Equation 8.
package metrics

import (
	"fmt"
	"math"
)

// QuantileLoss computes the total quantile loss QL_tau (Equation 2) of
// predictions against actuals: sum over steps of rho_tau.
func QuantileLoss(tau float64, actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("metrics: %d actuals vs %d predictions", len(actual), len(predicted))
	}
	total := 0.0
	for i, y := range actual {
		total += Pinball(tau, y, predicted[i])
	}
	return total, nil
}

// Pinball is the quantile (pinball) loss rho_tau(y, yhat) of Equation 1:
// tau*(y - yhat) when the forecast is under y, (1 - tau)*(yhat - y) when
// it is over. Kept small enough to inline into the fleet's per-step
// calibration fold.
func Pinball(tau, y, yhat float64) float64 {
	u := y - yhat
	if u < 0 {
		return (tau - 1) * u
	}
	return tau * u
}

// WQL computes the weighted quantile loss at level tau:
// 2*QL_tau / sum(actual).
func WQL(tau float64, actual, predicted []float64) (float64, error) {
	ql, err := QuantileLoss(tau, actual, predicted)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, y := range actual {
		sum += y
	}
	if sum == 0 {
		return 0, fmt.Errorf("metrics: target sum is zero, wQL undefined")
	}
	return 2 * ql / sum, nil
}

// MeanWQL averages WQL over a set of quantile levels; predictedAt(tau)
// supplies the prediction path for each level.
func MeanWQL(levels []float64, actual []float64, predictedAt func(tau float64) []float64) (float64, error) {
	if len(levels) == 0 {
		return 0, fmt.Errorf("metrics: no quantile levels")
	}
	total := 0.0
	for _, tau := range levels {
		w, err := WQL(tau, actual, predictedAt(tau))
		if err != nil {
			return 0, err
		}
		total += w
	}
	return total / float64(len(levels)), nil
}

// Coverage measures the fraction of actuals lying at or below the
// tau-quantile prediction; a perfectly calibrated forecaster has
// Coverage = tau.
func Coverage(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("metrics: %d actuals vs %d predictions", len(actual), len(predicted))
	}
	if len(actual) == 0 {
		return 0, fmt.Errorf("metrics: empty coverage input")
	}
	covered := 0
	for i, y := range actual {
		if predicted[i] >= y {
			covered++
		}
	}
	return float64(covered) / float64(len(actual)), nil
}

// MSE computes the mean squared error of a point forecast.
func MSE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("metrics: %d actuals vs %d predictions", len(actual), len(predicted))
	}
	if len(actual) == 0 {
		return 0, fmt.Errorf("metrics: empty MSE input")
	}
	sum := 0.0
	for i, y := range actual {
		d := y - predicted[i]
		sum += d * d
	}
	return sum / float64(len(actual)), nil
}

// Uncertainty computes the metric U of Equation 8 for one forecast step:
// the pinball loss of each quantile forecast measured against the median
// forecast, summed over the quantile levels. It quantifies the spread of
// the quantile fan — wider (more uncertain) forecasts score higher.
//
// The paper's printed formula has the sign of the second factor flipped
// relative to the pinball loss it says U resembles; evaluated literally it
// is non-positive for every input, so this implementation uses the pinball
// orientation, which matches the surrounding text ("similar to quantile
// loss ... compares the forecast at each quantile level with the median
// forecast") and Figure 6's positive values.
func Uncertainty(levels []float64, quantiles []float64, median float64) (float64, error) {
	if len(levels) != len(quantiles) {
		return 0, fmt.Errorf("metrics: %d levels vs %d quantile values", len(levels), len(quantiles))
	}
	u := 0.0
	for i, tau := range levels {
		u += Pinball(tau, median, quantiles[i])
	}
	return u, nil
}

// ProvisioningReport summarizes an auto-scaling evaluation: how often the
// allocation was insufficient for the realized workload, how often it
// exceeded the minimum required, and the cumulative node-steps allocated.
type ProvisioningReport struct {
	Steps              int
	UnderProvisioned   int
	OverProvisioned    int
	TotalNodes         int
	TotalMinimumNodes  int
	UnderProvisionRate float64
	OverProvisionRate  float64
	// MeanUtilization is the average of workload/(allocated*theta), i.e.
	// how close the cluster ran to its target threshold.
	MeanUtilization float64
}

// Provisioning evaluates integer node allocations against the realized
// workload under the scaling threshold theta (Definition 3): a step is
// under-provisioned when workload/allocated exceeds theta, and
// over-provisioned when more nodes were allocated than the minimum that
// satisfies the threshold.
func Provisioning(actual []float64, allocated []int, theta float64) (*ProvisioningReport, error) {
	if len(actual) != len(allocated) {
		return nil, fmt.Errorf("metrics: %d actuals vs %d allocations", len(actual), len(allocated))
	}
	if len(actual) == 0 {
		return nil, fmt.Errorf("metrics: empty provisioning input")
	}
	if theta <= 0 {
		return nil, fmt.Errorf("metrics: non-positive threshold %v", theta)
	}
	r := &ProvisioningReport{Steps: len(actual)}
	utilSum := 0.0
	for i, w := range actual {
		c := allocated[i]
		if c < 1 {
			c = 1
		}
		min := MinNodes(w, theta)
		r.TotalNodes += c
		r.TotalMinimumNodes += min
		if w/float64(c) > theta {
			r.UnderProvisioned++
		} else if c > min {
			r.OverProvisioned++
		}
		utilSum += w / (float64(c) * theta)
	}
	r.UnderProvisionRate = float64(r.UnderProvisioned) / float64(r.Steps)
	r.OverProvisionRate = float64(r.OverProvisioned) / float64(r.Steps)
	r.MeanUtilization = utilSum / float64(r.Steps)
	return r, nil
}

// MinNodes returns the minimum integer node count c >= 1 with
// w/c <= theta.
func MinNodes(w, theta float64) int {
	if w <= 0 {
		return 1
	}
	c := int(math.Ceil(w / theta))
	// Guard against w/theta landing exactly on an integer boundary from
	// above due to floating point.
	if float64(c)*theta < w {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}
