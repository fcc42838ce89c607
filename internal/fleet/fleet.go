// Package fleet is the sharded multi-tenant control plane: one process
// drives N independent auto-scaling control loops — each tenant with its
// own workload trace, forecaster warm state, calibration window, guard
// degradation ladder, circuit breaker and checkpoint record — through
// a lock-step replay, batching forecaster inference across tenants on
// the shared worker pool.
//
// The package keeps the single-tenant determinism discipline at fleet
// scale: every tenant's state is fully isolated (per-index writes only),
// all per-tenant randomness derives from a splitmix-mixed seed keyed by
// the tenant index, and the aggregate report folds tenants in index
// order — so per-tenant decisions and the fleet hash are bit-identical
// across worker counts, and a kill-restart resumes to the same totals an
// uninterrupted run produces.
package fleet

import (
	"fmt"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/persist"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

// Strategy and forecaster names accepted by Config.
const (
	StrategyRobust      = "robust"
	StrategyAdaptive    = "adaptive"
	StrategyReactiveMax = "reactive-max"

	ForecasterSeasonalNaive = "seasonal-naive"
	ForecasterNaive         = "naive"
	ForecasterQuantileMLP   = "qmlp"
)

// Config sizes and parameterizes a fleet run. Every field that shapes a
// tenant's decisions is part of the checkpoint fingerprint, so a restart
// with different knobs cold-starts instead of silently resuming wrong.
type Config struct {
	// Tenants is the fleet size.
	Tenants int
	// Seed is the fleet master seed; each tenant's trace and model seeds
	// are derived from it and the tenant index.
	Seed int64
	// Days is each tenant's trace length; TrainDays of it are visible
	// history for the forecaster, the rest is replayed.
	Days, TrainDays int
	// Units is the number of machines aggregated into each tenant's
	// trace; small counts keep per-tenant generation cheap at 10k scale.
	Units int
	// Horizon is the planning cadence in steps.
	Horizon int
	// Theta is the per-node workload threshold.
	Theta float64
	// Tau and Tau2 are the quantile levels (robust uses Tau; adaptive
	// uses the pair).
	Tau, Tau2 float64
	// Rho is the adaptive uncertainty threshold; 0 auto-calibrates per
	// tenant from its training fan (deterministically).
	Rho float64
	// Strategy and Forecaster pick the per-tenant planner.
	Strategy, Forecaster string
	// Guard wraps every tenant's strategy in the resilience guard.
	Guard bool
	// Workers bounds the worker pool batching tenant planning and
	// builds; <= 0 uses every CPU. The choice never changes results.
	Workers int
	// StateDir enables durable checkpoints: each checkpointed round is
	// one segment file under it holding every tenant's record; empty
	// disables durability.
	StateDir string
	// CheckpointInterval commits a segment every N fleet rounds.
	CheckpointInterval int
	// Retain is how many segments are kept; a tenant whose newest record
	// is damaged resumes from the next-older one.
	Retain int
	// MaxRounds stops the fleet loop after N rounds (0 = run every
	// tenant to the end of its trace); kill-restart drills use it to
	// stop deterministically at a round boundary.
	MaxRounds int
	// PerTenant includes the per-tenant records in the report.
	PerTenant bool
	// SLOTarget is the fleet-wide violation-rate objective feeding the
	// error-budget tracker and burn-rate alerts; 0 disables the SLO
	// plane (the tracker never observes, so the fleet hash and every
	// per-tenant decision are identical either way).
	SLOTarget float64
	// SLOWindow is the rolling error-budget window in fleet rounds.
	SLOWindow int
	// BurnRules overrides the burn-rate alert rules; nil uses
	// obs.DefaultBurnRules(SLOWindow).
	BurnRules []obs.BurnRule
	// PoolNodes caps the fleet's aggregate allocation at every replay
	// step: the shared capacity pool admission control clips plans
	// against. 0 disables the pool (every plan is admitted untouched, so
	// decisions and the fleet hash match a pool-less run bit for bit).
	PoolNodes int
	// QuarantineAfter is the backpressure breaker threshold: a tenant
	// clipped this many consecutive rounds is quarantined to reactive
	// planning instead of thrashing the pool. 0 disables quarantine.
	QuarantineAfter int
	// QuarantineRounds is how many rounds a quarantined tenant plans
	// reactively before re-entering predictive planning.
	QuarantineRounds int
	// Chaos names the fleet chaos preset (chaos.Preset); "" or "none"
	// disables fault injection entirely.
	Chaos string
	// ChaosSeed seeds the fault schedules; 0 falls back to Seed.
	ChaosSeed int64
	// ChaosTenants restricts tenant-local fault injection to the listed
	// tenant ids (fleet-level classes still fire); empty enrolls every
	// tenant. Single-victim quarantine-isolation drills use this.
	ChaosTenants []string
	// Zones is the number of failure domains tenants stripe across for
	// zone-outage chaos.
	Zones int
	// Serverless enables the scale-to-zero model: tenants get serverless
	// workload archetypes (deep idle troughs, burst wakes), a joint
	// (count x size) allocation decision, park/wake hysteresis with the
	// scaler.WakeGuardConfig defaults, and the wake circuit breaker. A
	// tenant idles below IdleEps(Theta), and a cold wake takes wakeSeconds
	// and costs wakeCost. Off (the default), WakeSLOSeconds is ignored and
	// the fleet is bit-identical to a pre-serverless run.
	Serverless bool
	// WakeSLOSeconds is the p99 wake-latency objective the report grades
	// against.
	WakeSLOSeconds float64
}

// DefaultConfig returns a runnable fleet configuration for the given
// tenant count: two training days feeding a seasonal-naive robust
// planner over a 2-hour horizon.
func DefaultConfig(tenants int) Config {
	return Config{
		Tenants:            tenants,
		Seed:               42,
		Days:               4,
		TrainDays:          2,
		Units:              3,
		Horizon:            12,
		Theta:              60,
		Tau:                0.9,
		Tau2:               0.95,
		Strategy:           StrategyRobust,
		Forecaster:         ForecasterSeasonalNaive,
		Guard:              true,
		CheckpointInterval: 1,
		Retain:             persist.DefaultRetain,
		PerTenant:          true,
		SLOTarget:          0.01,
		SLOWindow:          48,
		QuarantineAfter:    3,
		QuarantineRounds:   8,
		Zones:              4,
		WakeSLOSeconds:     1800, // three steps
	}
}

// IdleEps is the workload level below which a serverless tenant counts as
// genuinely idle: a tenth of a node's threshold.
func IdleEps(theta float64) float64 { return theta / 10 }

// stepsPerDay at the default 10-minute aggregation step.
func stepsPerDay() int { return int(24 * time.Hour / timeseries.DefaultStep) }

// validate rejects configurations that cannot produce a well-formed run;
// every rejection wraps ErrConfig.
func (cfg Config) validate() error {
	invalid := func(format string, a ...any) error {
		return fmt.Errorf("fleet: %w: "+format, append([]any{ErrConfig}, a...)...)
	}
	if cfg.Tenants <= 0 {
		return invalid("need at least one tenant, got %d", cfg.Tenants)
	}
	if cfg.TrainDays < 1 || cfg.Days <= cfg.TrainDays {
		return invalid("need Days > TrainDays >= 1, got %d/%d", cfg.Days, cfg.TrainDays)
	}
	if cfg.Units <= 0 {
		return invalid("need at least one trace unit per tenant")
	}
	if err := CheckSizes(cfg.Horizon, (cfg.Days-cfg.TrainDays)*stepsPerDay(), cfg.Theta); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	switch cfg.Strategy {
	case StrategyRobust, StrategyAdaptive:
		if !(cfg.Tau > 0 && cfg.Tau < 1) {
			return invalid("quantile level %v outside (0, 1)", cfg.Tau)
		}
	case StrategyReactiveMax:
	default:
		return invalid("unknown strategy %q", cfg.Strategy)
	}
	switch cfg.Forecaster {
	case ForecasterSeasonalNaive:
		if cfg.TrainDays < 2 {
			return invalid("seasonal-naive needs TrainDays >= 2 (one full season of history beyond the period)")
		}
	case ForecasterNaive, ForecasterQuantileMLP:
	default:
		return invalid("unknown forecaster %q", cfg.Forecaster)
	}
	if cfg.StateDir != "" && (cfg.CheckpointInterval < 1 || cfg.Retain < 1) {
		return invalid("non-positive checkpoint interval %d or retained segments %d", cfg.CheckpointInterval, cfg.Retain)
	}
	if cfg.SLOTarget != 0 {
		slo := obs.SLOConfig{Target: cfg.SLOTarget, Window: cfg.SLOWindow, Rules: cfg.BurnRules}
		if err := slo.Validate(); err != nil {
			return invalid("%w", err)
		}
	}
	if cfg.PoolNodes < 0 {
		return invalid("negative pool size %d", cfg.PoolNodes)
	}
	if cfg.QuarantineAfter < 0 || cfg.QuarantineRounds < 1 {
		return invalid("quarantine after %d clipped rounds for %d rounds: need >= 0 and >= 1", cfg.QuarantineAfter, cfg.QuarantineRounds)
	}
	if cfg.Zones < 1 {
		return invalid("non-positive zone count %d", cfg.Zones)
	}
	if cfg.Serverless && !(cfg.WakeSLOSeconds > 0) {
		return invalid("non-positive wake-latency SLO %v", cfg.WakeSLOSeconds)
	}
	if cfg.Chaos != "" && cfg.Chaos != "none" {
		if _, err := chaos.Preset(cfg.Chaos); err != nil {
			return invalid("%w", err)
		}
	}
	return nil
}

// TenantID formats the canonical id of the tenant at an index; ids are
// valid persist tenant ids and sort in index order.
func TenantID(index int) string { return fmt.Sprintf("t%05d", index) }

// deriveSeed mixes the fleet master seed with a tenant index through a
// splitmix64 finalizer, so neighbouring tenants get decorrelated trace
// and model seeds while the mapping stays a pure function of (seed, i).
func deriveSeed(seed int64, index int) int64 {
	z := uint64(seed) + (uint64(index)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // keep it positive for readable fingerprints
}

// tenantTrace derives the trace configuration and workload archetype of
// one tenant: even indices get the diurnal Alibaba-style trace, odd
// indices the bursty Google-style one, so every fleet mixes easy and
// hard workloads. A serverless fleet swaps the pair for the scale-to-zero
// archetypes: burst-wake serverless tenants and sunsetting decaying
// ones. The archetype name also lands in the checkpoint fingerprint's
// Dataset field, so flipping Config.Serverless cold-starts stale
// checkpoints instead of resuming against the wrong trace.
func tenantTrace(cfg Config, index int, seed int64) (trace.Config, string) {
	var tc trace.Config
	switch {
	case cfg.Serverless && index%2 == 0:
		tc = trace.ServerlessStyle(seed)
	case cfg.Serverless:
		tc = trace.DecayingStyle(seed)
	case index%2 == 0:
		tc = trace.AlibabaStyle(seed)
	default:
		tc = trace.GoogleStyle(seed)
	}
	archetype := tc.Name
	tc.Name = TenantID(index) + "/" + archetype
	tc.Units = cfg.Units
	tc.Days = cfg.Days
	tc.Resources = []trace.Resource{trace.CPU}
	return tc, archetype
}

// buildForecaster constructs one tenant's untrained forecaster. The
// quantile-MLP variant runs the allocation-free nn kernels per tenant;
// its tiny dimensions keep a fleet build tractable while still
// exercising the neural path.
func buildForecaster(cfg Config, seed int64) (forecast.QuantileForecaster, forecast.Snapshotter) {
	switch cfg.Forecaster {
	case ForecasterNaive:
		f := forecast.NewNaive(cfg.Horizon)
		return f, f
	case ForecasterQuantileMLP:
		mc := forecast.DefaultMLPConfig()
		mc.Context = 36
		mc.Hidden = 12
		mc.Epochs = 2
		mc.MaxWindows = 64
		mc.Seed = seed
		f := forecast.NewQuantileMLP(mc, forecast.ScalingLevels)
		return f, f
	default: // seasonal-naive
		f := forecast.NewSeasonalNaive(stepsPerDay())
		return f, f
	}
}
