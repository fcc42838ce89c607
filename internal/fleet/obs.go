package fleet

import (
	"robustscale/internal/obs"
	"robustscale/internal/scaler"
)

// Fleet instruments on the process-wide registry. The per-tenant vecs
// reuse the single-label registry machinery; tenants cache their own
// counter handles at build time so the per-step hot path never pays a
// label lookup.
var (
	fleetTenantsGauge = obs.Default.Gauge(
		"robustscale_fleet_tenants",
		"Tenants managed by the fleet controller.")
	fleetRoundsTotal = obs.Default.Counter(
		"robustscale_fleet_rounds_total",
		"Fleet-wide lock-step planning rounds completed.")
	fleetTenantRounds = obs.Default.CounterVec(
		"robustscale_fleet_tenant_rounds_total",
		"Planning rounds completed, by tenant.",
		"tenant")
	fleetTenantViolations = obs.Default.CounterVec(
		"robustscale_fleet_tenant_violations_total",
		"Threshold violations observed in the fleet replay, by tenant.",
		"tenant")
	fleetWarmStarts = obs.Default.Counter(
		"robustscale_fleet_warm_starts_total",
		"Tenants that warm-started from a checkpoint.")
	fleetColdStarts = obs.Default.Counter(
		"robustscale_fleet_cold_starts_total",
		"Tenants that cold-started (no usable checkpoint).")
	fleetCorruptSnapshots = obs.Default.Counter(
		"robustscale_fleet_corrupt_snapshots_total",
		"Per-tenant snapshot files rejected during fleet recovery.")
	fleetSeriesRestored = obs.Default.Counter(
		"robustscale_fleet_series_restored_total",
		"Tenants whose workload series a durable restart read back from the series file instead of regenerating.")
	fleetPlanSeconds = obs.Default.Histogram(
		"robustscale_fleet_plan_round_seconds",
		"Wall-clock latency of one fleet round, plan start to apply end.",
		obs.LatencyBuckets)

	guardModeTenants = obs.Default.GaugeVec(
		"robustscale_guard_mode_tenants",
		"Tenants whose guard ended the latest round on each degradation mode: normal, repair, last-known-good, reactive.",
		"mode")
	applyBreakerTenants = obs.Default.GaugeVec(
		"robustscale_apply_breaker_tenants",
		"Tenants whose apply circuit breaker ended the latest round in each state: closed, open, half-open.",
		"state")

	// Shared capacity pool instruments.
	fleetAdmissionClips = obs.Default.Counter(
		"robustscale_fleet_admission_clips_total",
		"Tenant-rounds clipped by shared-pool admission control.")
	fleetShedRounds = obs.Default.Counter(
		"robustscale_fleet_shed_rounds_total",
		"Fleet rounds where admission control shed at least one node.")
	fleetShedNodesTotal = obs.Default.Counter(
		"robustscale_fleet_shed_nodes_total",
		"Nodes shed by admission control across all tenants and rounds.")
	fleetPoolUtilization = obs.Default.Gauge(
		"robustscale_fleet_pool_utilization",
		"Fraction of the shared node pool admitted at the latest round's first step.")
	fleetAdmissionRejects = obs.Default.Counter(
		"robustscale_fleet_admission_rejects_total",
		"Rounds the admission RPC refused (chaos); tenants held their last admitted allocation.")
	fleetQuarantinesTotal = obs.Default.Counter(
		"robustscale_fleet_quarantines_total",
		"Backpressure-breaker trips quarantining a flapping tenant to reactive planning.")
	fleetQuarantinedGauge = obs.Default.Gauge(
		"robustscale_fleet_quarantined_tenants",
		"Tenants currently quarantined to reactive planning.")

	// Serverless wake instruments. The latency buckets cover the wake
	// spectrum from a fault-free cold start (tens of seconds) through
	// stalled and failed-retry wakes spanning multiple 10-minute steps.
	fleetWakeStarts = obs.Default.CounterVec(
		"robustscale_wake_starts_total",
		"Cold wakes started from zero capacity, by tenant.",
		"tenant")
	fleetWakeFailures = obs.Default.CounterVec(
		"robustscale_wake_failures_total",
		"Wake attempts aborted by injected or real provisioning failures, by tenant.",
		"tenant")
	fleetWakeLatency = obs.Default.HistogramVec(
		"robustscale_wake_latency_seconds",
		"Latency from first demanded step to serving capacity for completed wakes, by tenant.",
		"tenant",
		[]float64{5, 15, 30, 60, 120, 300, 600, 1200, 1800, 3600})
	fleetParkedGauge = obs.Default.Gauge(
		"robustscale_parked_tenants",
		"Tenants currently scaled to zero (parked, no wake in flight).")
	fleetWakeStorms = obs.Default.Counter(
		"robustscale_fleet_wake_storms_total",
		"Wake-storm rounds that forced the parked population awake simultaneously.")
)

// The resilience gauges' series, one per guard mode and per breaker
// state, looked up once so that a round sets them without a label lookup.
var (
	modeTenants    [scaler.ModeReactive + 1]*obs.Gauge
	breakerTenants [scaler.BreakerHalfOpen + 1]*obs.Gauge
)

func init() {
	for m := range modeTenants {
		modeTenants[m] = guardModeTenants.With(scaler.DegradationMode(m).String())
	}
	for s := range breakerTenants {
		breakerTenants[s] = applyBreakerTenants.With(scaler.BreakerState(s).String())
	}
}

// publishStates sets the resilience gauges to how many of the tenants
// ended the round on each guard mode and in each apply-breaker state.
func publishStates(tenants ...*Tenant) {
	var modes [len(modeTenants)]int
	var states [len(breakerTenants)]int
	for _, t := range tenants {
		modes[t.mode]++
		states[t.breaker]++
	}
	for m, n := range modes {
		modeTenants[m].Set(float64(n))
	}
	for s, n := range states {
		breakerTenants[s].Set(float64(n))
	}
}
