package scaler

import (
	"fmt"

	"robustscale/internal/metrics"
	"robustscale/internal/obs"
	"robustscale/internal/timeseries"
)

// EvalConfig controls a rolling evaluation of a strategy over the tail of
// a workload series.
type EvalConfig struct {
	// Theta is the per-node workload threshold used to judge
	// provisioning.
	Theta float64
	// Horizon is the planning cadence: the strategy plans Horizon steps,
	// those elapse, then it re-plans. The paper uses 72 (12 hours) for
	// predictive strategies and 1 for reactive ones.
	Horizon int
	// Start is the index of the first evaluated step; everything before
	// it is visible history (and typically training data).
	Start int
	// Tenant labels the decision records and tenant-scoped counters of
	// this evaluation; empty means obs.DefaultTenant, so single-tenant
	// callers change nothing.
	Tenant string
}

// tenant resolves the configured tenant id, defaulting the empty value.
func (cfg EvalConfig) tenant() string {
	if cfg.Tenant == "" {
		return obs.DefaultTenant
	}
	return cfg.Tenant
}

// EvalResult is the outcome of a rolling evaluation.
type EvalResult struct {
	Strategy    string
	Report      *metrics.ProvisioningReport
	Allocations []int
	Actuals     []float64
}

// Evaluate replays the series against the strategy: at each planning
// origin the strategy sees only the history so far, commits allocations
// for the next Horizon steps, and the realized workload grades them. The
// next round's history holds that realized load, which is what the
// padding baseline learns from. Evaluate counts its rounds in
// plans_total.
func Evaluate(strategy Strategy, s *timeseries.Series, cfg EvalConfig) (*EvalResult, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("scaler: non-positive evaluation horizon %d", cfg.Horizon)
	}
	if cfg.Start <= 0 || cfg.Start >= s.Len() {
		return nil, fmt.Errorf("scaler: evaluation start %d outside series of length %d", cfg.Start, s.Len())
	}
	rounds := (s.Len() - cfg.Start) / cfg.Horizon
	allocations := make([]int, 0, rounds*cfg.Horizon)
	actuals := make([]float64, 0, rounds*cfg.Horizon)
	// One reusable history view and plan buffer keep the steady-state
	// round allocation-free: the view shares the series' backing array,
	// so warm forecasters see a continuous history.
	view := &timeseries.Series{Name: s.Name, Start: s.Start, Step: s.Step}
	var planBuf []int
	prev := 0
	for origin := cfg.Start; origin+cfg.Horizon <= s.Len(); origin += cfg.Horizon {
		sp := obs.DefaultTracer.Start("plan-round")
		view.Values = s.Values[:origin]
		round, err := strategy.PlanInto(view, cfg.Horizon, planBuf)
		plan := round.Nodes
		if plan != nil {
			planBuf = plan
		}
		if err != nil {
			return nil, fmt.Errorf("scaler: %s planning at %d: %w", strategy.Name(), origin, err)
		}
		if len(plan) != cfg.Horizon {
			return nil, fmt.Errorf("scaler: %s returned %d allocations for horizon %d", strategy.Name(), len(plan), cfg.Horizon)
		}
		// The virtual-time lookup only feeds the span stamp and the
		// decision record; with both observers off the loop pays two
		// atomic loads here and nothing else.
		if sp.Active() || obs.DefaultDecisions.Enabled() {
			at := s.TimeAt(origin)
			sp.EndVirtual(at)
			RecordDecisionAdmitted(round.Decision, cfg.tenant(), origin, at, prev, plan, 0, "")
		}
		prev = plan[len(plan)-1]
		allocations = append(allocations, plan...)
		actuals = append(actuals, s.Values[origin:origin+cfg.Horizon]...)
	}
	if len(allocations) == 0 {
		return nil, fmt.Errorf("scaler: evaluation span too short for horizon %d", cfg.Horizon)
	}
	report, err := metrics.Provisioning(actuals, allocations, cfg.Theta)
	if err != nil {
		return nil, err
	}
	CountPlans(strategy.Name(), len(allocations)/cfg.Horizon, len(allocations))
	countActions(0, allocations)
	violationsTotal.With(strategy.Name()).Add(float64(report.UnderProvisioned))
	tenantViolations.With(cfg.tenant()).Add(float64(report.UnderProvisioned))
	return &EvalResult{
		Strategy:    strategy.Name(),
		Report:      report,
		Allocations: allocations,
		Actuals:     actuals,
	}, nil
}
