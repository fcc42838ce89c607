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

	last         int
	lastDecision *obs.Decision
	cachedName   string
	innerBuf     []int
}

// Name implements Strategy. The name is formatted once and cached so the
// hot planning path never re-formats it.
func (r *RateLimited) Name() string {
	if r.cachedName == "" {
		r.cachedName = fmt.Sprintf("%s-ratelimit%d", r.Inner.Name(), r.MaxDelta)
	}
	return r.cachedName
}

// LastDecision implements DecisionProvider: the wrapped strategy's
// record with the constrained plan substituted and every step the rate
// limit overrode re-labelled obs.BindingRateLimit.
func (r *RateLimited) LastDecision() *obs.Decision { return r.lastDecision }

// Plan implements Strategy.
func (r *RateLimited) Plan(history *timeseries.Series, h int) ([]int, error) {
	return r.plan(history, h, false)
}

// PlanInto implements InPlacePlanner: the inner plan runs on its fast
// path into a reused buffer. The constrained dynamic program still
// allocates (bounded by horizon and node range); dst is unused.
func (r *RateLimited) PlanInto(history *timeseries.Series, h int, _ []int) ([]int, error) {
	return r.plan(history, h, true)
}

func (r *RateLimited) plan(history *timeseries.Series, h int, fast bool) ([]int, error) {
	var inner []int
	var err error
	if ipp, ok := r.Inner.(InPlacePlanner); fast && ok {
		inner, err = ipp.PlanInto(history, h, r.innerBuf)
		if inner != nil {
			r.innerBuf = inner
		}
	} else {
		inner, err = r.Inner.Plan(history, h)
	}
	if err != nil {
		return nil, err
	}
	initial := r.last
	if initial < 1 {
		initial = 1
	}
	sp := obs.DefaultTracer.Start("optimize")
	plan, err := optimize.PlanConstrainedDemand(inner, optimize.ThrashingConfig{
		Initial:  initial,
		MaxDelta: r.MaxDelta,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	if len(plan) > 0 {
		r.last = plan[len(plan)-1]
	}
	if obs.DefaultDecisions.Enabled() {
		r.lastDecision = r.decision(inner, plan)
	} else if r.lastDecision != nil {
		r.lastDecision = nil
	}
	return plan, nil
}

// decision derives the wrapper's record from the inner strategy's.
func (r *RateLimited) decision(inner, plan []int) *obs.Decision {
	d := &obs.Decision{Strategy: r.Name(), Horizon: len(plan), Nodes: plan}
	if dp, ok := r.Inner.(DecisionProvider); ok {
		if id := dp.LastDecision(); id != nil {
			copied := *id
			copied.Strategy = r.Name()
			copied.Nodes = plan
			if len(id.Binding) == len(plan) && len(inner) == len(plan) {
				binding := append([]string(nil), id.Binding...)
				for i := range plan {
					if plan[i] != inner[i] {
						binding[i] = obs.BindingRateLimit
					}
				}
				copied.Binding = binding
			}
			d = &copied
		}
	}
	return d
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
	// round allocation-free for in-place strategies: the view shares the
	// series' backing array, so warm forecasters see a continuous history.
	view := &timeseries.Series{Name: s.Name, Start: s.Start, Step: s.Step}
	var planBuf []int
	prev := 0
	for origin := cfg.Start; origin+cfg.Horizon <= s.Len(); origin += cfg.Horizon {
		sp := obs.DefaultTracer.Start("plan-round")
		view.Values = s.Values[:origin]
		plan, err := PlanRound(strategy, view, cfg.Horizon, planBuf)
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
			RecordDecisionAdmitted(strategy, cfg.tenant(), origin, at, prev, plan, 0, "")
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
