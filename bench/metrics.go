//go:build linux

package main

// metricDef names one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
// BENCHMARK.json repeats these tables; bench_test.go fails when the two
// drift apart.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is the same five metrics on every workload. All are costs of
// one tenant-round (or one process start), all strictly positive, none
// is wall-clock.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"user_cpu_us_per_tenant_round", "us", "lower", 0.25},
	{"mallocs_per_tenant_round", "count", "lower", 0.02},
	{"live_heap_kb_per_tenant", "KiB", "lower", 0.03},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer lists the layer rows of the traced pass, named
// <module>.<metric>. README.md says which end-to-end metric each one is
// expected to move, on which workload.
var perLayer = []metricDef{
	{name: "trace.generate_us_per_tenant", unit: "us", better: "lower"},
	{name: "forecast.fit_us_per_tenant", unit: "us", better: "lower"},
	{name: "forecast.predict_us_per_round", unit: "us", better: "lower"},
	{name: "forecast.predict_allocs_per_round", unit: "count", better: "lower"},
	{name: "nn.lstm_step_ns", unit: "ns", better: "lower"},
	{name: "nn.mulvec_ns", unit: "ns", better: "lower"},
	{name: "optimize.plan_ns_per_round", unit: "ns", better: "lower"},
	{name: "optimize.size_demand_ns", unit: "ns", better: "lower"},
	{name: "scaler.plan_us_per_round", unit: "us", better: "lower"},
	{name: "scaler.plan_allocs_per_round", unit: "count", better: "lower"},
	{name: "scaler.wakeguard_shape_ns", unit: "ns", better: "lower"},
	{name: "cluster.apply_us_per_round", unit: "us", better: "lower"},
	{name: "cluster.serverless_step_ns", unit: "ns", better: "lower"},
	{name: "cluster.calibration_observe_ns", unit: "ns", better: "lower"},
	{name: "cluster.violation_rate_pct", unit: "%", better: "lower"},
	{name: "cluster.cost_node_steps_per_tenant_round", unit: "count", better: "lower"},
	{name: "cluster.holds", unit: "count", better: "lower"},
	{name: "persist.encode_us", unit: "us", better: "lower"},
	{name: "persist.write_user_us", unit: "us", better: "lower"},
	{name: "persist.write_wall_us", unit: "us", better: "lower"},
	{name: "persist.recover_us", unit: "us", better: "lower"},
	{name: "persist.bytes_per_checkpoint", unit: "B", better: "lower"},
	{name: "persist.commits_per_round", unit: "count", better: "lower"},
	{name: "persist.sys_cpu_us_per_tenant_round", unit: "us", better: "lower"},
	{name: "obs.sketch_observe_ns", unit: "ns", better: "lower"},
	{name: "obs.journal_record_ns", unit: "ns", better: "lower"},
	{name: "obs.decisions_on_overhead_pct", unit: "%", better: "lower"},
	{name: "parallel.dispatch_ns_per_task", unit: "ns", better: "lower"},
	{name: "chaos.schedule_build_us_per_tenant", unit: "us", better: "lower"},
	{name: "chaos.faults_injected", unit: "count", better: "lower"},
	{name: "fleet.new_cpu_s", unit: "s", better: "lower"},
	{name: "fleet.run_cpu_s", unit: "s", better: "lower"},
	{name: "fleet.run_wall_s", unit: "s", better: "lower"},
	{name: "fleet.sys_cpu_us_per_tenant_round", unit: "us", better: "lower"},
	{name: "fleet.alloc_bytes_per_tenant_round", unit: "B", better: "lower"},
	{name: "fleet.gc_cycles", unit: "count", better: "lower"},
	{name: "fleet.warm_restart_us_per_tenant", unit: "us", better: "lower"},
	{name: "fleet.unattributed_us_per_tenant_round", unit: "us", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
