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
	"strconv"
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
)

// Config sizes and parameterizes a fleet run. Every field that shapes a
// tenant's decisions is part of the checkpoint fingerprint, so a restart
// with different knobs cold-starts instead of silently resuming wrong.
type Config struct {
	// Tenants is the fleet size.
	Tenants int
	// Seed is the fleet master seed; each tenant's trace seed is derived
	// from it and the tenant index.
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
	// uses the pair, Tau <= Tau2, with the uncertainty threshold each
	// tenant calibrates from its training fan).
	Tau, Tau2 float64
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
	// PoolNodes caps the fleet's aggregate allocation at every replay
	// step: the shared capacity pool admission control clips plans
	// against. 0 disables the pool (every plan is admitted untouched, so
	// decisions and the fleet hash match a pool-less run bit for bit).
	PoolNodes int
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
	// (count x size) allocation decision, scaler.WakeGuard's park/wake
	// hysteresis, and the wake circuit breaker. A
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
		Zones:              4,
		WakeSLOSeconds:     1800, // three steps
	}
}

// IdleEps is the workload level below which a serverless tenant counts as
// genuinely idle: a tenth of a node's threshold.
func IdleEps(theta float64) float64 { return theta / 10 }

// stepsPerDay at the default 10-minute aggregation step.
func stepsPerDay() int { return int(24 * time.Hour / timeseries.DefaultStep) }

// Validate rejects configurations that cannot produce a well-formed run;
// every rejection wraps ErrConfig. New calls it; a command calls it first
// to refuse a command line before it opens anything.
func (cfg Config) Validate() error {
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
	case StrategyRobust, StrategyAdaptive, StrategyReactiveMax:
	default:
		return invalid("unknown strategy %q", cfg.Strategy)
	}
	if err := CheckLevels(cfg.Strategy, cfg.Tau, cfg.Tau2); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	switch cfg.Forecaster {
	case ForecasterSeasonalNaive:
		if cfg.TrainDays < 2 {
			return invalid("seasonal-naive needs TrainDays >= 2 (one full season of history beyond the period)")
		}
	case ForecasterNaive:
	default:
		return invalid("unknown forecaster %q", cfg.Forecaster)
	}
	if cfg.StateDir != "" && (cfg.CheckpointInterval < 1 || cfg.Retain < 1) {
		return invalid("non-positive checkpoint interval %d or retained segments %d", cfg.CheckpointInterval, cfg.Retain)
	}
	if cfg.SLOTarget != 0 {
		slo := obs.SLOConfig{Target: cfg.SLOTarget, Window: cfg.SLOWindow}
		if err := slo.Validate(); err != nil {
			return invalid("%w", err)
		}
	}
	if cfg.PoolNodes < 0 {
		return invalid("negative pool size %d", cfg.PoolNodes)
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

// TenantID formats the canonical id of the tenant at an index, "t%05d";
// ids are valid persist tenant ids and sort in index order.
func TenantID(index int) string { return string(appendTenantID(make([]byte, 0, 24), index)) }

func appendTenantID(b []byte, index int) []byte {
	b = append(b, 't')
	for pad := 10000; pad > 1 && index < pad; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(index), 10)
}

// deriveSeed mixes the fleet master seed with a tenant index through a
// splitmix64 finalizer, so neighbouring tenants get decorrelated trace
// seeds while the mapping stays a pure function of (seed, i).
func deriveSeed(seed int64, index int) int64 {
	z := uint64(seed) + (uint64(index)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // keep it positive for readable fingerprints
}

// tenantTrace derives the trace configuration, id and workload archetype
// of one tenant: even indices get the diurnal Alibaba-style trace, odd
// indices the bursty Google-style one, so every fleet mixes easy and
// hard workloads. A serverless fleet swaps the pair for the scale-to-zero
// archetypes: burst-wake serverless tenants and sunsetting decaying
// ones. The archetype name also lands in the checkpoint fingerprint's
// Dataset field, so flipping Config.Serverless cold-starts stale
// checkpoints instead of resuming against the wrong trace. The id is cut
// from the trace's name, "<id>/<archetype>".
func tenantTrace(cfg Config, index int, seed int64) (tc trace.Config, id, archetype string) {
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
	archetype = tc.Name
	var b [64]byte
	tc.Name = string(append(append(appendTenantID(b[:0], index), '/'), archetype...))
	id = tc.Name[:len(tc.Name)-len(archetype)-1]
	tc.Units = cfg.Units
	tc.Days = cfg.Days
	tc.Resources = cpuOnly
	return tc, id, archetype
}

var cpuOnly = []trace.Resource{trace.CPU} // every tenant's one resource, never written

// buildForecaster constructs one tenant's untrained forecaster.
func buildForecaster(cfg Config) (forecast.QuantileForecaster, forecast.Snapshotter) {
	if cfg.Forecaster == ForecasterNaive {
		f := forecast.NewNaive(cfg.Horizon)
		return f, f
	}
	f := forecast.NewSeasonalNaive(stepsPerDay())
	return f, f
}
