package scaler

import (
	"time"

	"robustscale/internal/obs"
	"robustscale/internal/optimize"
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

// countPlan records one completed planning round for a strategy on its
// plans_total child, looked up on the first round and cached in *plans as
// the strategy caches its name.
func countPlan(plans **obs.Counter, name string, steps int) {
	if *plans == nil {
		*plans = plansTotal.With(name)
	}
	(*plans).Inc()
	plannedSteps.Add(float64(steps))
}

// lapStage observes the seconds since *clock, an obs.Mono reading, into a
// stage histogram and moves *clock to now, where the next stage starts:
// a round's forecast and optimize stages share their boundary reading.
func lapStage(clock *time.Duration, stage *obs.Histogram) {
	now := obs.Mono()
	stage.Observe((now - *clock).Seconds())
	*clock = now
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

// resize recycles a scratch slice when its backing array is large
// enough, so a steady-state round (plan and decision assembly) settles to
// zero allocations on the hot reactive path (one planning round per step).
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// flatPlan is the plan of a reactive strategy, which has no forward
// model: a single window statistic drives one flat allocation for the
// whole horizon.
func flatPlan(dst []int, h int, drive, theta float64) []int {
	plan := resize(dst, h)
	c := optimize.Allocate(drive, theta)
	for i := range plan {
		plan[i] = c
	}
	return plan
}

// flatDecision assembles flatPlan's decision record, reusing the
// strategy's previous one (and its slices) as scratch.
func flatDecision(d *obs.Decision, name string, theta, drive float64, plan []int) *obs.Decision {
	if d == nil {
		d = &obs.Decision{}
	}
	h := len(plan)
	*d = obs.Decision{
		Strategy: name, Horizon: h, Theta: theta, Nodes: plan,
		Quantile: resize(d.Quantile, h), Binding: resize(d.Binding, h),
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
		Quantile: path, Binding: resize(d.Binding, len(path)),
	}
	for i, v := range path {
		d.Binding[i] = bindingFor(v)
	}
	return d
}

// RecordDecisionAdmitted stamps a round's decision record with its
// context — tenant, planning origin, virtual time, previous allocation —
// and the fleet admission outcome, and records it on
// obs.DefaultDecisions: shed is how many nodes admission control clipped
// from the plan's first step, reason labels why (pool exhaustion,
// quarantine). The recorded Nodes are the plan as admitted, not as
// requested — the audit trail shows what actually ran plus how much was
// taken away. A round without a record (d == nil) is a no-op.
func RecordDecisionAdmitted(d *obs.Decision, tenant string, origin int, at time.Time, prev int, plan []int, shed int, reason string) {
	if d == nil || !obs.DefaultDecisions.Enabled() {
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
