package fleet

import (
	"fmt"
	"sort"

	"robustscale/internal/obs"
)

// TenantReport is the deterministic outcome of one tenant's replay.
// Every field is a pure function of the fleet configuration (plus any
// recovered checkpoints), so the records — and the fleet hash folded
// over them — are bit-identical across worker counts and restarts.
type TenantReport struct {
	ID             string  `json:"id"`
	Archetype      string  `json:"archetype"`
	Seed           int64   `json:"seed"`
	WarmStart      bool    `json:"warm_start"`
	Rounds         int     `json:"rounds"`
	Steps          int     `json:"steps"`
	Violations     int     `json:"violations"`
	ViolationRate  float64 `json:"violation_rate"`
	CostNodeSteps  int64   `json:"cost_node_steps"`
	FinalNodes     int     `json:"final_nodes"`
	Holds          int     `json:"holds,omitempty"`
	DegradedRounds int     `json:"degraded_rounds,omitempty"`
	// AllocHash is the rolling FNV-1a hash over every allocation the
	// tenant committed, carried across restarts.
	AllocHash string `json:"alloc_hash"`
	// Admission-control outcome (lifetime, carried across restarts via
	// the checkpoint Extra section).
	Class          string `json:"class,omitempty"`
	ShedNodes      int64  `json:"shed_nodes,omitempty"`
	ClippedRounds  int    `json:"clipped_rounds,omitempty"`
	Quarantines    int    `json:"quarantines,omitempty"`
	QuarantinedNow bool   `json:"quarantined_now,omitempty"`
	// Faulted reports whether the chaos schedule targets this tenant;
	// blast-radius accounting splits the fleet on it.
	Faulted bool `json:"faulted,omitempty"`
	// Serverless outcome (zero unless the scale-to-zero model is on).
	Parks        int64 `json:"parks,omitempty"`
	Wakes        int64 `json:"wakes,omitempty"`
	WakeFailures int64 `json:"wake_failures,omitempty"`
	ParkedSteps  int64 `json:"parked_steps,omitempty"`
	ParkedNow    bool  `json:"parked_now,omitempty"`
	KeepWarmNow  bool  `json:"keep_warm_now,omitempty"`
}

// Timing is the latency distribution of this process's tenant-rounds:
// each tenant's plan plus apply, read on the monotonic clock by the
// worker that ran it and folded into one fleet sketch after each round's
// apply barrier. It is observational only — scheduling noise makes it
// run-dependent — so determinism checks must exclude it (hash
// `del(.timing)` or just .fleet_hash).
type Timing struct {
	Samples   int     `json:"samples"`
	P50Millis float64 `json:"p50_ms"`
	P90Millis float64 `json:"p90_ms"`
	P99Millis float64 `json:"p99_ms"`
}

// WorstTenant is one entry of a worst-tenant list: a tenant and its exact
// lifetime total (violations, node-steps).
type WorstTenant struct {
	ID    string  `json:"id"`
	Value float64 `json:"value"`
}

// worstListSize bounds the worst-tenant lists in the report.
const worstListSize = 8

// Report is the aggregate outcome of a fleet run.
type Report struct {
	Tenants    int    `json:"tenants"`
	Strategy   string `json:"strategy"`
	Forecaster string `json:"forecaster"`
	Workers    int    `json:"workers"`
	// Rounds counts this process's lock-step fleet rounds; tenant totals
	// below span whole lifetimes (across restarts).
	Rounds        int     `json:"rounds"`
	Steps         int64   `json:"steps"`
	Violations    int64   `json:"violations"`
	ViolationRate float64 `json:"violation_rate"`
	CostNodeSteps int64   `json:"cost_node_steps"`
	Holds         int64   `json:"holds"`
	WarmStarts    int     `json:"warm_starts"`
	ColdStarts    int     `json:"cold_starts"`
	CorruptSnaps  int     `json:"corrupt_snapshots"`
	// SeriesRestored counts the tenants whose workload series this
	// process read back from the state dir's series file; the rest were
	// generated. Equal to Tenants on a restart that recomputed nothing.
	SeriesRestored int `json:"series_restored,omitempty"`
	// Per-tenant distribution of violation rate and cost (percentiles
	// over tenants, deterministic).
	ViolationRateP50 float64 `json:"violation_rate_p50"`
	ViolationRateP90 float64 `json:"violation_rate_p90"`
	ViolationRateP99 float64 `json:"violation_rate_p99"`
	CostP50          float64 `json:"cost_p50"`
	CostP90          float64 `json:"cost_p90"`
	CostP99          float64 `json:"cost_p99"`
	// DecisionsTotal counts decision records captured process-wide (0
	// when capture is disabled); the count is deterministic even though
	// ring order under parallelism is not.
	DecisionsTotal uint64 `json:"decisions_total"`
	// FleetHash folds every tenant's deterministic outcome (id, alloc
	// hash, steps, violations, cost) in index order: one value that pins
	// the entire fleet's decisions bit-for-bit.
	FleetHash string         `json:"fleet_hash"`
	Timing    *Timing        `json:"timing,omitempty"`
	PerTenant []TenantReport `json:"per_tenant,omitempty"`
	// WorstViolations and WorstCost are the exact top tenants by lifetime
	// violations and cost, largest first, ties in id order; tenants with
	// nothing to report are left out.
	WorstViolations []WorstTenant `json:"worst_violations,omitempty"`
	WorstCost       []WorstTenant `json:"worst_cost,omitempty"`
	// SLO is the error-budget state at the end of the run (nil when the
	// SLO plane is disabled).
	SLO *obs.SLOStatus `json:"slo,omitempty"`
	// Pool is the shared-capacity admission outcome (nil with no pool).
	Pool *PoolReport `json:"pool,omitempty"`
	// Chaos summarizes the fault schedule of the run (nil with chaos
	// disabled).
	Chaos *ChaosReport `json:"chaos,omitempty"`
	// Serverless is the fleet-wide scale-to-zero outcome (nil unless the
	// serverless model is on).
	Serverless *ServerlessReport `json:"serverless,omitempty"`
	// BlastRadius is attached after the run when a fault-free baseline
	// was supplied for comparison (MeasureBlastRadius); it never feeds
	// the fleet hash.
	BlastRadius *BlastRadius `json:"blast_radius,omitempty"`
}

// PoolReport aggregates the admission-control outcome of a pooled run.
// The lifetime fields (clips, shed nodes, quarantines) fold per-tenant
// counters persisted in checkpoints, so they are bit-identical across
// worker counts and kill-restarts; ShedRounds and AdmissionRejects count
// this process's rounds only.
type PoolReport struct {
	Nodes int `json:"nodes"`
	// AdmissionClips is the lifetime count of tenant-rounds clipped.
	AdmissionClips int64 `json:"admission_clips"`
	// ShedNodes is the lifetime total of nodes shed across tenants.
	ShedNodes int64 `json:"shed_nodes"`
	// ShedRounds counts this process's rounds with any clipping.
	ShedRounds int `json:"shed_rounds"`
	// AdmissionRejects counts rounds the admission RPC refused (chaos).
	AdmissionRejects int `json:"admission_rejects,omitempty"`
	// Quarantines is the lifetime count of backpressure-breaker trips.
	Quarantines int `json:"quarantines"`
	// QuarantinedNow counts tenants still quarantined at run end.
	QuarantinedNow int `json:"quarantined_now"`
	// PeakUtilization is the highest first-step pool utilization seen
	// this process (1.0 = the pool was fully admitted).
	PeakUtilization float64 `json:"peak_utilization"`
}

// ServerlessReport aggregates the scale-to-zero outcome of a serverless
// fleet run. The lifetime counters fold per-tenant plant and wake-guard
// state persisted in checkpoints; the latency percentiles come from the
// merged per-tenant wake sketches, folded in index order, so every field
// is bit-identical across worker counts and kill-restarts.
type ServerlessReport struct {
	// Parks, Wakes and WakeFailures are lifetime fleet totals.
	Parks        int64 `json:"parks"`
	Wakes        int64 `json:"wakes"`
	WakeFailures int64 `json:"wake_failures"`
	// BreakerTrips counts wake-breaker openings (keep-warm degradations).
	BreakerTrips int64 `json:"breaker_trips"`
	// ParkedNow / KeepWarmNow count tenants in each state at run end.
	ParkedNow   int `json:"parked_now"`
	KeepWarmNow int `json:"keep_warm_now"`
	// ParkedSteps is the lifetime total of zero-capacity steps — the
	// node-steps scale-to-zero did not pay for.
	ParkedSteps int64 `json:"parked_steps"`
	// Wake latency distribution over completed wakes, and the SLO it is
	// graded against.
	WakeP50Seconds float64 `json:"wake_p50_seconds"`
	WakeP99Seconds float64 `json:"wake_p99_seconds"`
	WakeSLOSeconds float64 `json:"wake_slo_seconds"`
	WakeSLOMet     bool    `json:"wake_slo_met"`
	WakeSamples    int     `json:"wake_samples"`
}

// ChaosReport summarizes the deterministic fault schedule of a run.
type ChaosReport struct {
	Preset string `json:"preset"`
	Zones  int    `json:"zones"`
	// FleetEvents counts scheduled fleet-level events (zone outages,
	// pool collapses, admission rejects).
	FleetEvents int `json:"fleet_events"`
	// FaultedTenants counts tenants whose schedules carry any fault.
	FaultedTenants int `json:"faulted_tenants"`
}

// report assembles the aggregate after the run loop exits.
func (c *Controller) report() *Report {
	r := &Report{
		Tenants:        len(c.tenants),
		Strategy:       c.cfg.Strategy,
		Forecaster:     c.cfg.Forecaster,
		Workers:        c.cfg.Workers,
		Rounds:         c.rounds,
		WarmStarts:     c.warmCount,
		ColdStarts:     c.coldCount,
		CorruptSnaps:   c.corrupt,
		SeriesRestored: c.seriesRestored,
		DecisionsTotal: obs.DefaultDecisions.Total(),
	}
	// Distributions stream through mergeable sketches — O(buckets)
	// memory however large the fleet. Observation happens in tenant index
	// order, so every derived figure is deterministic.
	vrSketch := obs.NewSketch(obs.DefaultSketchAlpha)
	costSketch := obs.NewSketch(obs.DefaultSketchAlpha)
	var pool *PoolReport
	if c.cfg.PoolNodes > 0 {
		pool = &PoolReport{
			Nodes:            c.cfg.PoolNodes,
			ShedRounds:       c.shedRounds,
			AdmissionRejects: c.admissionRejects,
			PeakUtilization:  c.peakUtil,
		}
	}
	var chaosRep *ChaosReport
	if c.chaosSched != nil {
		chaosRep = &ChaosReport{
			Preset:      c.cfg.Chaos,
			Zones:       c.chaosSched.Zones(),
			FleetEvents: len(c.chaosSched.FleetEvents()),
		}
	}
	var sless *ServerlessReport
	var wakeSketch *obs.Sketch
	if c.cfg.Serverless {
		sless = &ServerlessReport{WakeSLOSeconds: c.cfg.WakeSLOSeconds}
		wakeSketch = obs.NewSketch(obs.DefaultSketchAlpha)
	}
	hash := uint64(fnvOffset)
	for _, t := range c.tenants {
		tr := TenantReport{
			ID: t.ID, Archetype: t.Archetype, Seed: t.Seed,
			WarmStart: t.warm, Rounds: t.Rounds(),
			Steps: t.steps, Violations: t.violations,
			CostNodeSteps: t.cost, FinalNodes: t.prevAlloc, Holds: t.holds,
			AllocHash: fmt.Sprintf("%016x", t.allocHash),
			Faulted:   t.faulted,
		}
		if t.steps > 0 {
			tr.ViolationRate = float64(t.violations) / float64(t.steps)
		}
		if t.guard != nil {
			tr.DegradedRounds = t.guard.DegradedRounds()
		}
		if pool != nil {
			tr.Class = t.Class.String()
			tr.ShedNodes = t.shedTotal
			tr.ClippedRounds = t.clippedRounds
			tr.Quarantines = int(t.quarantine.Trips())
			tr.QuarantinedNow = t.quarantined()
			pool.AdmissionClips += int64(t.clippedRounds)
			pool.ShedNodes += t.shedTotal
			pool.Quarantines += int(t.quarantine.Trips())
			if t.quarantined() {
				pool.QuarantinedNow++
			}
		}
		if chaosRep != nil && t.faulted {
			chaosRep.FaultedTenants++
		}
		if sless != nil && t.sless != nil {
			tr.Parks = t.sless.Parks()
			tr.Wakes = t.sless.Wakes()
			tr.WakeFailures = t.sless.WakeFails()
			tr.ParkedSteps = t.parkedSteps
			tr.ParkedNow = t.sless.Parked()
			tr.KeepWarmNow = t.wakeGuard.BreakerOpen()
			sless.Parks += tr.Parks
			sless.Wakes += tr.Wakes
			sless.WakeFailures += tr.WakeFailures
			sless.BreakerTrips += t.wakeGuard.BreakerTrips()
			sless.ParkedSteps += tr.ParkedSteps
			if tr.ParkedNow {
				sless.ParkedNow++
			}
			if tr.KeepWarmNow {
				sless.KeepWarmNow++
			}
			_ = wakeSketch.Merge(t.wakeLat)
		}
		r.Steps += int64(t.steps)
		r.Violations += int64(t.violations)
		r.CostNodeSteps += t.cost
		r.Holds += int64(t.holds)
		vrSketch.Observe(tr.ViolationRate)
		costSketch.Observe(float64(t.cost))
		hash = foldString(hash, t.ID)
		hash = foldUint64(hash, t.allocHash)
		hash = foldUint64(hash, uint64(t.steps))
		hash = foldUint64(hash, uint64(t.violations))
		hash = foldUint64(hash, uint64(t.cost))
		if c.cfg.PerTenant {
			r.PerTenant = append(r.PerTenant, tr)
		}
	}
	if r.Steps > 0 {
		r.ViolationRate = float64(r.Violations) / float64(r.Steps)
	}
	r.FleetHash = fmt.Sprintf("%016x", hash)
	r.ViolationRateP50 = vrSketch.Percentile(50)
	r.ViolationRateP90 = vrSketch.Percentile(90)
	r.ViolationRateP99 = vrSketch.Percentile(99)
	r.CostP50 = costSketch.Percentile(50)
	r.CostP90 = costSketch.Percentile(90)
	r.CostP99 = costSketch.Percentile(99)
	if c.dur.Count() > 0 {
		r.Timing = &Timing{
			Samples:   int(c.dur.Count()),
			P50Millis: c.dur.Percentile(50) * 1e3,
			P90Millis: c.dur.Percentile(90) * 1e3,
			P99Millis: c.dur.Percentile(99) * 1e3,
		}
	}
	r.WorstViolations = worst(c.tenants, func(t *Tenant) float64 { return float64(t.violations) })
	r.WorstCost = worst(c.tenants, func(t *Tenant) float64 { return float64(t.cost) })
	if c.slo != nil {
		st := c.slo.Status()
		r.SLO = &st
	}
	r.Pool = pool
	r.Chaos = chaosRep
	if sless != nil {
		sless.WakeSamples = int(wakeSketch.Count())
		if sless.WakeSamples > 0 {
			sless.WakeP50Seconds = wakeSketch.Percentile(50)
			sless.WakeP99Seconds = wakeSketch.Percentile(99)
		}
		// No completed wakes means no latency to breach the objective.
		sless.WakeSLOMet = sless.WakeSamples == 0 || sless.WakeP99Seconds <= sless.WakeSLOSeconds
		r.Serverless = sless
	}
	return r
}

// worst lists the worstListSize tenants with the largest positive value.
// The stable sort keeps ties in index order, which is id order.
func worst(tenants []*Tenant, value func(*Tenant) float64) []WorstTenant {
	var out []WorstTenant
	for _, t := range tenants {
		if v := value(t); v > 0 {
			out = append(out, WorstTenant{ID: t.ID, Value: v})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	if len(out) > worstListSize {
		out = out[:worstListSize]
	}
	return out
}

// foldString advances an FNV-1a hash over a string's bytes.
func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// foldUint64 advances an FNV-1a hash over a value's 8 little-endian
// bytes.
func foldUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}
