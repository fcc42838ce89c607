package robustscale

import (
	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/metrics"
	"robustscale/internal/obs"
	"robustscale/internal/optimize"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

// This facade carries exactly what the Examples, the commands and the
// root tests compile against; everything else lives in (and is imported
// from) the internal packages.

// Series is a regularly sampled univariate workload time series.
type Series = timeseries.Series

// NewSeries constructs a Series; see timeseries.New.
var NewSeries = timeseries.New

// DefaultStep is the paper's 10-minute aggregation interval.
const DefaultStep = timeseries.DefaultStep

// Trace generation: synthetic stand-ins for the Alibaba and Google cluster
// traces.
type (
	// Trace is a generated cluster trace with per-resource series.
	Trace = trace.Trace
	// TraceConfig controls synthetic trace generation.
	TraceConfig = trace.Config
	// Resource identifies a usage dimension (CPU, Memory, Disk).
	Resource = trace.Resource
)

// CPU is a generated trace's processor-usage dimension.
const CPU = trace.CPU

// GenerateTrace produces a trace from an explicit configuration.
var GenerateTrace = trace.Generate

// GenerateAlibabaTrace generates the Alibaba-style trace with the given
// seed: strong diurnal cycle, mild noise — the paper's easier dataset.
func GenerateAlibabaTrace(seed int64) (*Trace, error) {
	return trace.Generate(trace.AlibabaStyle(seed))
}

// GenerateGoogleTrace generates the Google-style trace with the given
// seed: bursty, weakly seasonal — the paper's harder dataset.
func GenerateGoogleTrace(seed int64) (*Trace, error) {
	return trace.Generate(trace.GoogleStyle(seed))
}

// QuantileForecast is a multi-step quantile forecast fan (Definition 2).
type QuantileForecast = forecast.QuantileForecast

// Forecaster constructors and defaults.
var (
	NewDeepAR = forecast.NewDeepAR
	NewTFT    = forecast.NewTFT
	// NewSeasonalNaive is the trivial reference baseline every learned
	// forecaster must beat.
	NewSeasonalNaive = forecast.NewSeasonalNaive

	DefaultDeepARConfig = forecast.DefaultDeepARConfig
	DefaultTFTConfig    = forecast.DefaultTFTConfig
)

// ScalingLevels is the auto-scaling quantile grid {0.5, ..., 0.99}.
var ScalingLevels = forecast.ScalingLevels

// Auto-scaling strategies.
type (
	// Strategy plans node allocations from workload history.
	Strategy = scaler.Strategy
	// ReactiveMax scales on the trailing-window maximum.
	ReactiveMax = scaler.ReactiveMax
	// ReactiveAvg scales on an exponentially decayed trailing average.
	ReactiveAvg = scaler.ReactiveAvg
	// Predictive scales on a point forecast.
	Predictive = scaler.Predictive
	// Robust scales on a fixed quantile forecast (Equation 6).
	Robust = scaler.Robust
	// Adaptive switches quantile levels on forecast uncertainty
	// (Algorithm 1).
	Adaptive = scaler.Adaptive
	// Staircase generalizes Adaptive to a ladder of quantile levels.
	Staircase = scaler.Staircase
	// StaircaseLevel is one rung of a Staircase.
	StaircaseLevel = scaler.StaircaseLevel
	// RateLimited bounds per-step node-count changes (Section V-A).
	RateLimited = scaler.RateLimited
	// EvalConfig controls a rolling strategy evaluation.
	EvalConfig = scaler.EvalConfig
)

// EvaluateStrategy replays a workload series against a strategy.
var EvaluateStrategy = scaler.Evaluate

// ForecastUncertainties computes the per-step uncertainty metric U
// (Equation 8) of a quantile forecast.
var ForecastUncertainties = scaler.Uncertainties

// ThrashingConfig bounds node-count change rates.
type ThrashingConfig = optimize.ThrashingConfig

// Optimization entry points (Definitions 3-5).
var (
	// Allocate is the per-step closed form: min nodes with w/c <= theta.
	Allocate = optimize.Allocate
	// PlanAllocations solves the multi-step problem for a workload path.
	PlanAllocations = optimize.Plan
	// PlanConstrained adds the anti-thrashing rate limit.
	PlanConstrained = optimize.PlanConstrained
)

// NewCluster creates a simulated storage-disaggregated cloud database;
// see cluster.New.
var NewCluster = cluster.New

// DefaultClusterConfig models a deployment with seconds-scale warm-up
// (Figure 5).
var DefaultClusterConfig = cluster.DefaultConfig

// Metric entry points from Section IV.
var (
	WQL          = metrics.WQL
	Uncertainty  = metrics.Uncertainty
	Provisioning = metrics.Provisioning
)

// Decision tracing and explainability.
var (
	// DefaultTracer is the process-wide tracer the daemon serves at
	// /trace; disabled until SetEnabled(true).
	DefaultTracer = obs.DefaultTracer
	// DefaultDecisions is the process-wide decision store the daemon
	// serves at /decisions.
	DefaultDecisions = obs.DefaultDecisions
)
