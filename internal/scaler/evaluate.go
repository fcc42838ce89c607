package scaler

import (
	"fmt"

	"robustscale/internal/metrics"
	"robustscale/internal/obs"
	"robustscale/internal/optimize"
	"robustscale/internal/timeseries"
)

// RateLimited wraps a Strategy with the anti-thrashing constraint of
// Section V-A: the planned node count may change by at most MaxDelta per
// step. The wrapped plan is treated as the demand path and re-planned by
// the exact dynamic program.
type RateLimited struct {
	// Inner produces the unconstrained plan.
	Inner Strategy
	// MaxDelta bounds the per-step node-count change.
	MaxDelta int

	last       int
	cachedName string
	innerBuf   []int
}

// Name implements Strategy. The name is formatted once and cached so the
// hot planning path never re-formats it.
func (r *RateLimited) Name() string {
	if r.cachedName == "" {
		r.cachedName = fmt.Sprintf("%s-ratelimit%d", r.Inner.Name(), r.MaxDelta)
	}
	return r.cachedName
}

// PlanInto implements Strategy: the inner plan lands in a reused buffer;
// the constrained dynamic program still allocates (bounded by horizon
// and node range), so dst is unused. The round carries no fan — its
// allocations come from the dynamic program, not a quantile path — and
// the wrapped strategy's decision record with the constrained plan
// substituted and every step the rate limit overrode re-labelled
// obs.BindingRateLimit.
func (r *RateLimited) PlanInto(history *timeseries.Series, h int, _ []int) (Round, error) {
	inner, err := r.Inner.PlanInto(history, h, r.innerBuf)
	if err != nil {
		return Round{}, err
	}
	r.innerBuf = inner.Nodes
	initial := r.last
	if initial < 1 {
		initial = 1
	}
	sp := obs.DefaultTracer.Start("optimize")
	plan, err := optimize.PlanConstrainedDemand(inner.Nodes, optimize.ThrashingConfig{
		Initial:  initial,
		MaxDelta: r.MaxDelta,
	})
	sp.End()
	if err != nil {
		return Round{}, err
	}
	if len(plan) > 0 {
		r.last = plan[len(plan)-1]
	}
	round := Round{Nodes: plan}
	if obs.DefaultDecisions.Enabled() {
		round.Decision = r.decision(inner, plan)
	}
	return round, nil
}

// decision derives the wrapper's record from the inner round's.
func (r *RateLimited) decision(inner Round, plan []int) *obs.Decision {
	d := obs.Decision{Horizon: len(plan)}
	if id := inner.Decision; id != nil {
		d = *id
		if len(id.Binding) == len(plan) && len(inner.Nodes) == len(plan) {
			d.Binding = append([]string(nil), id.Binding...)
			for i := range plan {
				if plan[i] != inner.Nodes[i] {
					d.Binding[i] = obs.BindingRateLimit
				}
			}
		}
	}
	d.Strategy, d.Nodes = r.Name(), plan
	return &d
}

// Observe forwards realized workloads to the wrapped strategy.
func (r *RateLimited) Observe(actual []float64) {
	if observer, ok := r.Inner.(Observer); ok {
		observer.Observe(actual)
	}
}

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
// strategy's Observe hook (if any) receives the realized workloads after
// each round, which is how the padding baseline learns.
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
		realized := s.Values[origin : origin+cfg.Horizon]
		allocations = append(allocations, plan...)
		actuals = append(actuals, realized...)
		if observer, ok := strategy.(Observer); ok {
			observer.Observe(realized)
		}
	}
	if len(allocations) == 0 {
		return nil, fmt.Errorf("scaler: evaluation span too short for horizon %d", cfg.Horizon)
	}
	report, err := metrics.Provisioning(actuals, allocations, cfg.Theta)
	if err != nil {
		return nil, err
	}
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
