package fleet

import "robustscale/internal/obs"

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
		"Wall-clock latency of one tenant planning round inside the fleet batch.",
		obs.LatencyBuckets)

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
