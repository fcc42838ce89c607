package scaler

import (
	"fmt"

	"robustscale/internal/forecast"
	"robustscale/internal/optimize"
	"robustscale/internal/timeseries"
)

// ResourceSpec describes one resource dimension of a multi-resource
// scaling decision: its workload history, a trained quantile forecaster,
// the quantile level guiding its allocation and its per-node threshold.
type ResourceSpec struct {
	// Name labels the resource (e.g. "cpu").
	Name string
	// History is the resource's observed workload series up to the
	// planning origin.
	History *timeseries.Series
	// Forecaster produces this resource's quantile forecasts.
	Forecaster forecast.QuantileForecaster
	// Tau is the quantile level guiding this resource's allocation.
	Tau float64
	// Theta is this resource's per-node threshold.
	Theta float64
}

// MultiResourcePlan is the outcome of a joint scaling decision.
type MultiResourcePlan struct {
	// Allocations is the node count per step: the maximum across
	// resources of the per-resource demands.
	Allocations []int
	// PerResource maps each resource name to the allocation it alone
	// would have required; the binding resource at each step is the one
	// matching Allocations.
	PerResource map[string][]int
}

// Binding returns the name of the resource that determined the allocation
// at step t (the first one reaching the maximum, in spec order).
func (p *MultiResourcePlan) Binding(specs []ResourceSpec, t int) string {
	for _, spec := range specs {
		if p.PerResource[spec.Name][t] == p.Allocations[t] {
			return spec.Name
		}
	}
	return ""
}

// PlanMultiResource sizes the cluster so that every resource's threshold
// holds simultaneously (Definition 3 extended to multivariate workloads,
// which Equation 2 already anticipates): the per-step allocation is the
// maximum of the per-resource robust allocations.
func PlanMultiResource(specs []ResourceSpec, h int) (*MultiResourcePlan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("scaler: no resources to plan")
	}
	if h <= 0 {
		return nil, fmt.Errorf("scaler: non-positive horizon %d", h)
	}
	plan := &MultiResourcePlan{
		Allocations: make([]int, h),
		PerResource: make(map[string][]int, len(specs)),
	}
	seen := map[string]bool{}
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("scaler: resource with empty name")
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("scaler: duplicate resource %q", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Theta <= 0 {
			return nil, fmt.Errorf("scaler: resource %q threshold %v", spec.Name, spec.Theta)
		}
		if !(spec.Tau > 0 && spec.Tau < 1) {
			return nil, fmt.Errorf("scaler: resource %q quantile level %v", spec.Name, spec.Tau)
		}
		f, err := spec.Forecaster.PredictQuantiles(spec.History, h, []float64{spec.Tau})
		if err != nil {
			return nil, fmt.Errorf("scaler: forecasting %q: %w", spec.Name, err)
		}
		alloc := make([]int, h)
		for t := 0; t < h; t++ {
			alloc[t] = optimize.Allocate(f.Values[t][0], spec.Theta)
			if alloc[t] > plan.Allocations[t] {
				plan.Allocations[t] = alloc[t]
			}
		}
		plan.PerResource[spec.Name] = alloc
	}
	return plan, nil
}

// EvaluateMultiResource grades a joint plan against the realized workloads
// of every resource: a step is under-provisioned if any resource's
// threshold is breached, over-provisioned if the allocation exceeds the
// joint minimum.
func EvaluateMultiResource(specs []ResourceSpec, actuals map[string][]float64, allocations []int) (under, over float64, err error) {
	if len(allocations) == 0 {
		return 0, 0, fmt.Errorf("scaler: empty allocations")
	}
	for _, spec := range specs {
		a, ok := actuals[spec.Name]
		if !ok {
			return 0, 0, fmt.Errorf("scaler: no actuals for resource %q", spec.Name)
		}
		if len(a) != len(allocations) {
			return 0, 0, fmt.Errorf("scaler: resource %q has %d actuals for %d allocations", spec.Name, len(a), len(allocations))
		}
	}
	underCount, overCount := 0, 0
	for t, c := range allocations {
		if c < 1 {
			c = 1
		}
		violated := false
		jointMin := 1
		for _, spec := range specs {
			w := actuals[spec.Name][t]
			if w/float64(c) > spec.Theta {
				violated = true
			}
			if m := optimize.Allocate(w, spec.Theta); m > jointMin {
				jointMin = m
			}
		}
		if violated {
			underCount++
		} else if c > jointMin {
			overCount++
		}
	}
	n := float64(len(allocations))
	return float64(underCount) / n, float64(overCount) / n, nil
}
