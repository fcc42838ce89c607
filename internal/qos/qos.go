// Package qos implements the performance-modeling extension the paper
// sketches in Section V-B: the workload threshold theta that drives
// auto-scaling is not a given — it encodes a quality-of-service target.
// This package models a compute node as an M/M/c queueing station, maps
// utilization to latency percentiles, and calibrates the largest threshold
// that still meets a Service Level Objective, closing the loop the paper
// leaves to future work.
package qos

import (
	"fmt"
	"math"
	"time"
)

// Node describes the service capability of one compute node.
type Node struct {
	// ServiceRate is the queries per second one worker completes (mu).
	ServiceRate float64
	// Workers is the number of parallel workers per node (c in M/M/c);
	// think worker threads or cores.
	Workers int
}

// Validate reports configuration errors.
func (n Node) Validate() error {
	if n.ServiceRate <= 0 {
		return fmt.Errorf("qos: non-positive service rate %v", n.ServiceRate)
	}
	if n.Workers < 1 {
		return fmt.Errorf("qos: need at least one worker, got %d", n.Workers)
	}
	return nil
}

// ErlangC returns the Erlang-C probability that an arriving query waits,
// for an M/M/c station with offered load a = lambda/mu and c workers. It
// is computed with the numerically stable iterative form.
func ErlangC(a float64, c int) (float64, error) {
	if a < 0 {
		return 0, fmt.Errorf("qos: negative offered load %v", a)
	}
	if c < 1 {
		return 0, fmt.Errorf("qos: need at least one worker, got %d", c)
	}
	if a >= float64(c) {
		return 1, nil // saturated: every arrival waits
	}
	// Iteratively compute the Erlang-B blocking probability, then convert.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b)), nil
}

// Latency summarizes the response-time distribution of a node under load.
type Latency struct {
	// Utilization is rho = lambda/(c*mu).
	Utilization float64
	// Mean is the expected response time (wait + service).
	Mean time.Duration
	// P95 and P99 are response-time percentiles.
	P95, P99 time.Duration
}

// NodeLatency computes the response-time distribution of one node serving
// arrivalRate queries per second, using M/M/c formulas. The percentile
// computation uses the exact two-branch response-time distribution of the
// M/M/c queue.
func NodeLatency(n Node, arrivalRate float64) (*Latency, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if arrivalRate < 0 {
		return nil, fmt.Errorf("qos: negative arrival rate %v", arrivalRate)
	}
	c := float64(n.Workers)
	mu := n.ServiceRate
	a := arrivalRate / mu
	rho := a / c
	if rho >= 1 {
		return &Latency{
			Utilization: rho,
			Mean:        time.Duration(math.MaxInt64),
			P95:         time.Duration(math.MaxInt64),
			P99:         time.Duration(math.MaxInt64),
		}, nil
	}
	pWait, err := ErlangC(a, n.Workers)
	if err != nil {
		return nil, err
	}
	// Mean response time: service + expected wait.
	meanWait := pWait / (c*mu - arrivalRate)
	mean := 1/mu + meanWait

	quantile := func(p float64) time.Duration {
		t := responseTimeQuantile(p, a, c, mu, pWait)
		return time.Duration(t * float64(time.Second))
	}
	return &Latency{
		Utilization: rho,
		Mean:        time.Duration(mean * float64(time.Second)),
		P95:         quantile(0.95),
		P99:         quantile(0.99),
	}, nil
}

// responseTimeQuantile inverts the M/M/c response-time CDF numerically.
// The CDF (for rho < 1) is a mixture of the service exponential and the
// waiting branch:
//
//	P(T <= t) = 1 - e^{-mu t} - pWait * (e^{-(c mu - lambda) t} - e^{-mu t}) * cmu/(cmu - lambda - mu)  [general case]
//
// Rather than juggling the removable singularity at c*mu - lambda = mu,
// the CDF is evaluated directly and inverted by bisection, which is robust
// for every parameter combination.
func responseTimeQuantile(p, a, c, mu, pWait float64) float64 {
	lambda := a * mu
	theta := c*mu - lambda // wait-branch rate
	cdf := func(t float64) float64 {
		// P(T > t) = e^{-mu t} + pWait * (e^{-theta t} - e^{-mu t}) * mu/(mu - theta)
		// with the limit handled when theta ~= mu.
		survService := math.Exp(-mu * t)
		var waitTerm float64
		if math.Abs(mu-theta) < 1e-9*mu {
			waitTerm = pWait * mu * t * math.Exp(-mu*t)
		} else {
			waitTerm = pWait * mu / (mu - theta) * (math.Exp(-theta*t) - math.Exp(-mu*t))
		}
		surv := survService + waitTerm
		if surv < 0 {
			surv = 0
		}
		if surv > 1 {
			surv = 1
		}
		return 1 - surv
	}
	lo, hi := 0.0, 1/mu
	for cdf(hi) < p {
		hi *= 2
		if hi > 1e9 {
			return hi
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// SLO is a latency Service Level Objective.
type SLO struct {
	// Percentile is the latency percentile the objective constrains
	// (e.g. 0.99).
	Percentile float64
	// Target is the maximum acceptable latency at that percentile.
	Target time.Duration
}

// Validate reports configuration errors.
func (s SLO) Validate() error {
	if s.Percentile <= 0 || s.Percentile >= 1 {
		return fmt.Errorf("qos: SLO percentile %v outside (0, 1)", s.Percentile)
	}
	if s.Target <= 0 {
		return fmt.Errorf("qos: non-positive SLO target %v", s.Target)
	}
	return nil
}

// CalibrateTheta finds the largest per-node workload threshold (in queries
// per second) that still meets the SLO on a single node, by bisection over
// the arrival rate. This is the quantity the auto-scaling formulation
// takes as its given theta: different SLOs produce different thresholds,
// exactly the dependence Section V-B describes.
func CalibrateTheta(n Node, slo SLO) (float64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	if err := slo.Validate(); err != nil {
		return 0, err
	}
	meets := func(rate float64) (bool, error) {
		l, err := NodeLatency(n, rate)
		if err != nil {
			return false, err
		}
		var at time.Duration
		switch {
		case slo.Percentile >= 0.99:
			at = l.P99
		case slo.Percentile >= 0.95:
			at = l.P95
		default:
			at = l.Mean
		}
		return at <= slo.Target, nil
	}

	capacity := float64(n.Workers) * n.ServiceRate
	// Even an idle node may miss an SLO tighter than its service time.
	ok, err := meets(0)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("qos: SLO %v@p%g unattainable: idle service time already exceeds it", slo.Target, slo.Percentile*100)
	}

	lo, hi := 0.0, capacity*(1-1e-9)
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
