// Package core wires the paper's two-phase framework together (Figure 2):
// a Probabilistic Workload Forecaster trained on historical traces feeds
// quantile forecasts to a Robust Auto-Scaling Manager, which plans compute
// allocations that a simulated disaggregated database then executes.
package core

import (
	"fmt"

	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/metrics"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

// Pipeline is a trained forecaster coupled to an auto-scaling strategy.
type Pipeline struct {
	// Forecaster is the probabilistic workload forecaster. It may be nil
	// for purely reactive strategies.
	Forecaster forecast.QuantileForecaster
	// Strategy converts forecasts (or history) into node allocations.
	Strategy scaler.Strategy
	// Theta is the per-node workload threshold (e.g. target CPU%).
	Theta float64
	// Horizon is the planning cadence in steps; the paper plans 72 steps
	// (12 hours) at a time.
	Horizon int

	trained bool
}

// NewRobust builds the paper's core configuration (Equation 6): scale on
// the tau-quantile forecast.
func NewRobust(f forecast.QuantileForecaster, tau, theta float64, horizon int) *Pipeline {
	return &Pipeline{
		Forecaster: f,
		Strategy:   &scaler.Robust{Forecaster: f, Tau: tau, Theta: theta},
		Theta:      theta,
		Horizon:    horizon,
	}
}

// NewAdaptive builds the uncertainty-aware adaptive configuration
// (Algorithm 1): scale on tau1 when the forecast fan is tight, tau2 when
// uncertainty reaches rho.
func NewAdaptive(f forecast.QuantileForecaster, tau1, tau2, rho, theta float64, horizon int) *Pipeline {
	return &Pipeline{
		Forecaster: f,
		Strategy: &scaler.Adaptive{
			Forecaster: f, Tau1: tau1, Tau2: tau2, Rho: rho, Theta: theta,
		},
		Theta:   theta,
		Horizon: horizon,
	}
}

// Train fits the forecaster on historical workload. Pipelines without a
// forecaster are trivially trained.
func (p *Pipeline) Train(history *timeseries.Series) error {
	if p.Horizon <= 0 {
		return fmt.Errorf("core: non-positive horizon %d", p.Horizon)
	}
	if p.Theta <= 0 {
		return fmt.Errorf("core: non-positive threshold %v", p.Theta)
	}
	if p.Forecaster != nil {
		if err := p.Forecaster.Fit(history); err != nil {
			return fmt.Errorf("core: training %s: %w", p.Forecaster.Name(), err)
		}
	}
	p.trained = true
	return nil
}

// RunReport is the outcome of a closed-loop run: the idealized
// provisioning evaluation plus the warm-up-aware cluster replay.
type RunReport struct {
	Strategy     string
	Provisioning *metrics.ProvisioningReport
	Replay       *cluster.ReplayReport
	Allocations  []int
}

// Run drives the full loop over the tail of the workload series starting
// at index start: plan Horizon steps from visible history, execute the
// allocations on a simulated cluster as the real workload arrives, then
// re-plan. Observer strategies receive the realized workloads.
func (p *Pipeline) Run(workload *timeseries.Series, start int, clusterCfg cluster.Config) (*RunReport, error) {
	if !p.trained {
		return nil, fmt.Errorf("core: pipeline not trained")
	}
	result, err := scaler.Evaluate(p.Strategy, workload, scaler.EvalConfig{Theta: p.Theta, Horizon: p.Horizon, Start: start})
	if err != nil {
		return nil, err
	}

	evaluated := workload.Slice(start, start+len(result.Allocations))
	c, err := cluster.New(clusterCfg, evaluated.Start, result.Allocations[0])
	if err != nil {
		return nil, err
	}
	replay, err := c.Replay(evaluated, result.Allocations, p.Theta)
	if err != nil {
		return nil, err
	}
	return &RunReport{
		Strategy:     result.Strategy,
		Provisioning: result.Report,
		Replay:       replay,
		Allocations:  result.Allocations,
	}, nil
}
