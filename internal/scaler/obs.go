package scaler

import (
	"time"

	"robustscale/internal/obs"
)

// Instruments registered on the process-wide registry. The stage
// histogram names the same family internal/ops registers (registration is
// idempotent by name), so forecast/optimize timings recorded here and the
// apply timings recorded by the daemon land in one histogram.
var (
	stageSeconds = obs.Default.HistogramVec(
		"robustscale_stage_duration_seconds",
		"Control-loop stage latency in seconds.",
		"stage", obs.LatencyBuckets)
	stageForecast = stageSeconds.With("forecast")
	stageOptimize = stageSeconds.With("optimize")

	// plansTotal counts planning rounds per strategy; plannedSteps the
	// allocation steps they committed.
	plansTotal = obs.Default.CounterVec(
		"robustscale_scaler_plans_total",
		"Planning rounds completed, by strategy.",
		"strategy")
	plannedSteps = obs.Default.Counter(
		"robustscale_scaler_planned_steps_total",
		"Allocation steps committed across all plans.")

	// scaleActions counts planned node-count changes by direction; the
	// evaluation harness and the daemon both feed it.
	scaleActions = obs.Default.CounterVec(
		"robustscale_scaler_scale_actions_total",
		"Node-count changes between consecutive allocation steps, by direction (out/in).",
		"direction")
	scaleOut = scaleActions.With("out")
	scaleIn  = scaleActions.With("in")

	// violationsTotal counts threshold breaches graded during evaluation
	// replays.
	violationsTotal = obs.Default.CounterVec(
		"robustscale_scaler_violations_total",
		"Threshold violations observed in evaluation replays, by strategy.",
		"strategy")

	// tenantViolations is the tenant-labelled companion of
	// violationsTotal: single-label vecs carry one dimension, so the
	// per-strategy and per-tenant views are separate families.
	tenantViolations = obs.Default.CounterVec(
		"robustscale_scaler_tenant_violations_total",
		"Threshold violations observed in evaluation replays, by tenant.",
		"tenant")
)

// countPlan records one completed planning round for a strategy.
func countPlan(name string, steps int) {
	plansTotal.With(name).Inc()
	plannedSteps.Add(float64(steps))
}

// countActions records the scale-out/in transitions of an allocation
// sequence, starting from the previous allocation prev (prev <= 0 skips
// the first comparison).
func countActions(prev int, allocations []int) {
	for _, a := range allocations {
		if prev > 0 {
			switch {
			case a > prev:
				scaleOut.Inc()
			case a < prev:
				scaleIn.Inc()
			}
		}
		prev = a
	}
}

// bindingFor labels which constraint pinned the allocation driven by one
// workload value: the demand ceiling, or the one-node floor when the
// value asked for nothing.
func bindingFor(value float64) string {
	if value <= 0 {
		return obs.BindingFloor
	}
	return obs.BindingDemand
}

// resizeFloats and resizeStrings recycle a scratch slice when its backing
// array is large enough, so per-round decision assembly settles to zero
// allocations on the hot reactive path (one planning round per step).
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeStrings(s []string, n int) []string {
	if cap(s) < n {
		return make([]string, n)
	}
	return s[:n]
}

// flatDecision assembles the decision record of a flat-allocation
// reactive strategy driven by a single window statistic, reusing the
// strategy's previous record (and its slices) as scratch.
func flatDecision(d *obs.Decision, name string, h int, theta, drive float64, plan []int) *obs.Decision {
	if d == nil {
		d = &obs.Decision{}
	}
	*d = obs.Decision{
		Strategy: name, Horizon: h, Theta: theta, Nodes: plan,
		Quantile: resizeFloats(d.Quantile, h), Binding: resizeStrings(d.Binding, h),
	}
	b := bindingFor(drive)
	for i := 0; i < h; i++ {
		d.Quantile[i] = drive
		d.Binding[i] = b
	}
	return d
}

// pathDecision assembles the decision record of a strategy that
// allocated along a per-step workload path (point or quantile forecast),
// reusing the previous record as scratch.
func pathDecision(d *obs.Decision, name string, theta float64, path []float64, plan []int) *obs.Decision {
	if d == nil {
		d = &obs.Decision{}
	}
	*d = obs.Decision{
		Strategy: name, Horizon: len(path), Theta: theta, Nodes: plan,
		Quantile: path, Binding: resizeStrings(d.Binding, len(path)),
	}
	for i, v := range path {
		d.Binding[i] = bindingFor(v)
	}
	return d
}

// RecordDecision stamps a strategy's last decision record with its round
// context — planning origin, virtual time, previous allocation — and
// records it on obs.DefaultDecisions under the default tenant; strategies
// without a decision record are a no-op.
func RecordDecision(strategy Strategy, origin int, at time.Time, prev int, plan []int) {
	RecordDecisionAdmitted(strategy, obs.DefaultTenant, origin, at, prev, plan, 0, "")
}

// RecordDecisionAdmitted is RecordDecision with an explicit tenant label
// and the fleet admission outcome annotated: shed is how many nodes
// admission control clipped from the plan's first step, reason labels
// why (pool exhaustion, quarantine). The recorded Nodes are the plan as
// admitted, not as requested — the audit trail shows what actually ran
// plus how much was taken away.
func RecordDecisionAdmitted(strategy Strategy, tenant string, origin int, at time.Time, prev int, plan []int, shed int, reason string) {
	if !obs.DefaultDecisions.Enabled() {
		return
	}
	dp, ok := strategy.(DecisionProvider)
	if !ok {
		return
	}
	d := dp.LastDecision()
	if d == nil {
		return
	}
	rec := *d
	rec.Tenant = tenant
	rec.Step = origin
	rec.Time = at
	rec.PrevNodes = prev
	rec.Shed = shed
	rec.ShedReason = reason
	if len(plan) > 0 {
		rec.Delta = plan[0] - prev
		if shed > 0 {
			rec.Nodes = plan
		}
	}
	obs.DefaultDecisions.Record(rec)
}
