package fleet

import (
	"context"
	"fmt"
	"slices"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/parallel"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
	"robustscale/internal/wire"
)

// A serverless tenant's cold wake takes wakeSeconds fault-free, and each
// completed wake costs wakeCost node-steps.
const (
	wakeSeconds = 30
	wakeCost    = 2
)

// Controller drives the fleet through lock-step planning rounds.
type Controller struct {
	cfg     Config
	tenants []*Tenant

	// segs is the fleet's checkpoint store (nil without cfg.StateDir):
	// tenants frame their records into its slots, checkpoint commits them
	// as one segment.
	segs *persist.SegmentStore

	rounds    int
	lastCkpt  int
	warmCount int
	coldCount int
	corrupt   int
	// seriesRestored counts the tenants whose series came back from the
	// state root's series file instead of being generated.
	seriesRestored int

	// slo tracks the fleet-wide error budget over virtual time; nil when
	// cfg.SLOTarget is 0. lastSteps/lastViol are the fleet totals at the
	// previous round boundary, so each round observes only its delta.
	slo       *obs.SLOTracker
	lastSteps int64
	lastViol  int64

	// calFold pools every tenant's calibration window into the fleet's
	// calibration gauges.
	calFold cluster.CalibrationFold

	// scratch is the round scratch of the apply stage, one per worker; it
	// grows to the worker count the first round runs with.
	scratch []*roundScratch
	// dur is the distribution of this process's round latency, plan start
	// to apply end; phases is the wall time of each stage, summed.
	dur    *obs.Sketch
	phases PhaseSeconds

	// Shared capacity pool and chaos state. chaosSched is nil with chaos
	// disabled; the admission scratch buffers are reused every round.
	chaosSched       *chaos.FleetSchedule
	demandBuf        []int
	admitBuf         []int
	classBuf         []PriorityClass
	shedRounds       int
	admissionRejects int
	peakUtil         float64
}

// New builds the fleet: every tenant's trace is generated, its
// forecaster trained (or warm-started from its record in the newest
// segment under cfg.StateDir that holds a valid one), and its guard,
// breaker and calibration state restored. Construction is batched across
// the worker pool; each tenant is built entirely from its own derived
// seed and its own records, so the build is deterministic and
// order-independent.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	chaosSched, err := buildChaosSchedule(cfg)
	if err != nil {
		return nil, err
	}
	var segs *persist.SegmentStore
	var series *persist.SeriesStore
	if cfg.StateDir != "" {
		if segs, err = persist.OpenSegments(cfg.StateDir, cfg.Retain, cfg.Tenants); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		if series, err = persist.OpenSeries(cfg.StateDir, trace.Revision); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		defer series.Close()
	}
	tenants := make([]*Tenant, cfg.Tenants)
	errs := make([]error, cfg.Tenants)
	build := func(t *Tenant, model []byte, rho float64) (scaler.Strategy, forecast.Snapshotter, float64, error) {
		return buildStrategy(cfg, t, model, rho)
	}
	parallel.ForEachWorkerSpan("fleet-build", cfg.Workers, cfg.Tenants, func(_, i int) {
		tenants[i], errs[i] = buildTenant(cfg, i, chaosSched, segs, series, build)
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	if segs != nil {
		segs.DropRecovered()
	}
	c := &Controller{cfg: cfg, tenants: tenants, segs: segs, lastCkpt: -1, chaosSched: chaosSched,
		dur: obs.NewSketch(obs.DefaultSketchAlpha)}
	fleetTenantsGauge.Set(float64(cfg.Tenants))
	publishStates(tenants...)
	// Lifecycle bookkeeping runs sequentially in tenant order so journal
	// entries (a tenant's restore events, then its start) and start
	// counters land deterministically. A tenant journals its start only
	// when recovery turned something down; the fleet journals one start
	// with the counts.
	for _, t := range tenants {
		t.journal()
		c.corrupt += len(t.rejected)
		kind, n := "cold", &c.coldCount
		if t.warm {
			kind, n = "warm", &c.warmCount
		}
		*n++
		if t.seriesRestored {
			c.seriesRestored++
		}
		if len(t.rejected) == 0 && t.coldReason == "" && !t.partial {
			continue
		}
		obs.DefaultJournal.RecordTenantAt(t.Now(), t.ID, "tenant-start",
			fmt.Sprintf("%s start at replay step %d/%d (%s archetype)",
				kind, t.origin-t.TrainEnd, t.Series.Len()-t.TrainEnd, t.Archetype),
			map[string]float64{"warm": b2f(t.warm), "origin": float64(t.origin), "corrupt_snapshots": float64(len(t.rejected)),
				"series_restored": b2f(t.seriesRestored)})
	}
	obs.DefaultJournal.RecordTenantAt(tenants[0].Now(), "", "fleet-start",
		fmt.Sprintf("%d tenants started: %d warm, %d cold, %d corrupt snapshots, %d series restored",
			len(tenants), c.warmCount, c.coldCount, c.corrupt, c.seriesRestored),
		map[string]float64{"tenants": float64(len(tenants)), "warm": float64(c.warmCount), "cold": float64(c.coldCount),
			"corrupt_snapshots": float64(c.corrupt), "series_restored": float64(c.seriesRestored)})
	fleetWarmStarts.Add(float64(c.warmCount))
	fleetColdStarts.Add(float64(c.coldCount))
	fleetCorruptSnapshots.Add(float64(c.corrupt))
	fleetSeriesRestored.Add(float64(c.seriesRestored))
	// A warm start exports the windows it restored before its first round.
	c.foldCalibration()
	if series != nil && c.seriesRestored < len(tenants) {
		c.saveSeries(series)
	}
	if cfg.SLOTarget > 0 {
		c.slo = obs.NewSLOTracker(obs.SLOConfig{Target: cfg.SLOTarget, Window: cfg.SLOWindow}).InstrumentDefault()
		c.slo.Journal = obs.DefaultJournal
		// The tracker rides tenant 0's checkpoint; a restored blob resumes
		// the budget mid-window, a mismatched one starts fresh.
		tenants[0].Sections = func(st *persist.State) { st.SLO = persist.Blob(c.slo.Save) }
		if blob := wire.Bytes(tenants[0].sloBlob); len(blob) > 0 {
			if err := c.slo.Load(&blob); err != nil {
				obs.DefaultJournal.RecordTenantAt(tenants[0].Now(), "", "slo",
					fmt.Sprintf("SLO snapshot rejected, starting budget fresh: %v", err), nil)
			}
		}
		// Steps replayed before a restart were already observed by the
		// saved tracker; baseline the deltas at the restored totals.
		for _, t := range tenants {
			c.lastSteps += int64(t.steps)
			c.lastViol += int64(t.violations)
		}
	}
	tenants[0].sloBlob = nil // a view of the segment image DropRecovered released
	return c, nil
}

// SLO exposes the fleet's error-budget tracker (nil when disabled).
func (c *Controller) SLO() *obs.SLOTracker { return c.slo }

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// Tenants exposes the fleet members in index order (read-only use).
func (c *Controller) Tenants() []*Tenant { return c.tenants }

// buildChaosSchedule expands cfg's chaos preset into the fleet fault
// schedule; nil when chaos is disabled.
func buildChaosSchedule(cfg Config) (*chaos.FleetSchedule, error) {
	if cfg.Chaos == "" || cfg.Chaos == "none" {
		return nil, nil
	}
	prof, err := chaos.Preset(cfg.Chaos)
	if err != nil {
		return nil, err
	}
	prof.Seed = cfg.ChaosSeed
	if prof.Seed == 0 {
		prof.Seed = cfg.Seed
	}
	prof.Steps = (cfg.Days - cfg.TrainDays) * stepsPerDay()
	return chaos.NewFleetSchedule(prof, cfg.Zones)
}

// chaosEnrolled reports whether tenant-local fault injection targets the
// given tenant id (fleet-level classes always apply).
func chaosEnrolled(cfg Config, id string) bool {
	return len(cfg.ChaosTenants) == 0 || slices.Contains(cfg.ChaosTenants, id)
}

// saveSeries rewrites the state root's series file from the built
// tenants. New calls it when any of them had to generate its series — a
// first run, a grown fleet, other trace settings, a damaged record — so
// the next restart reads every one back. The file only ever saves CPU
// time, so a failed write is journalled and the run goes on.
func (c *Controller) saveSeries(store *persist.SeriesStore) {
	recs := make([]persist.SeriesRecord, len(c.tenants))
	for i, t := range c.tenants {
		tc, _, _ := tenantTrace(c.cfg, i, t.Seed)
		recs[i] = persist.SeriesRecord{Key: seriesKey(tc), Values: t.Series.Values}
	}
	if _, err := store.Write(recs); err != nil {
		obs.DefaultJournal.RecordTenantAt(c.tenants[0].Now(), "", "series-error",
			fmt.Sprintf("saving the fleet's series failed; the next restart regenerates them: %v", err), nil)
	}
}

// seriesKey is what a tenant's series is stored under in the series file:
// everything it was generated from.
func seriesKey(tc trace.Config) []byte {
	return tc.AppendKey(make([]byte, 0, 256)) // room for any fleet tenant's key in one allocation
}

// tenantSeries is the tenant's workload series: its record of the state
// root's series file when that holds one stored under this exact trace
// configuration, generated otherwise — the same values either way.
func tenantSeries(tc trace.Config, index int, store *persist.SeriesStore) (*timeseries.Series, bool, error) {
	if store != nil {
		if values, err := store.Read(index, seriesKey(tc), tc.Len()); err == nil {
			return tc.Aggregated(trace.CPU, values), true, nil
		}
	}
	tr, err := trace.Generate(tc)
	if err != nil {
		return nil, false, err
	}
	series, err := tr.Series(trace.CPU)
	return series, false, err
}

// buildTenant derives one tenant's parts from the fleet configuration and
// its index, and starts it with the fleet's build (recovering from its
// slot of segs, and its series from store, when the fleet is durable).
func buildTenant(cfg Config, index int, fs *chaos.FleetSchedule, segs *persist.SegmentStore, store *persist.SeriesStore,
	build func(*Tenant, []byte, float64) (scaler.Strategy, forecast.Snapshotter, float64, error)) (*Tenant, error) {
	seed := deriveSeed(cfg.Seed, index)
	tc, id, archetype := tenantTrace(cfg, index, seed)
	series, restored, err := tenantSeries(tc, index, store)
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", id, err)
	}
	t := &Tenant{
		ID: id, Index: index, Archetype: archetype, Seed: seed,
		Class:  ClassOf(index),
		Series: series, seriesRestored: restored,
		TrainEnd: cfg.TrainDays * stepsPerDay(), Horizon: cfg.Horizon,
		ForecasterKind: cfg.Forecaster,
		ApplyAttempts:  1,
		Build:          build,
	}
	t.quarantine.Cooldown = quarantineRounds
	t.Fingerprint = persist.Fingerprint{
		Strategy: cfg.Strategy, Tenant: id, Dataset: t.Archetype, Seed: seed,
		Theta: cfg.Theta, Horizon: cfg.Horizon, Tau: cfg.Tau, Tau2: cfg.Tau2,
	}
	if cfg.Guard {
		t.GuardConfig = scaler.GuardConfig{Theta: cfg.Theta, Tau: cfg.Tau}
	}
	if segs != nil {
		slot, err := segs.Slot(index, &t.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", id, err)
		}
		t.store = slot
	}
	if fs != nil {
		// The tenant's fault schedule is the exact restriction of the
		// all-tenant run, derived from the master seed. Tenants outside an
		// explicit enrollment list stay completely dark (empty schedule) —
		// the single-victim isolation drill relies on it — while the
		// pool-level classes (collapse, admission rejects) are consulted by
		// the controller and apply regardless.
		if chaosEnrolled(cfg, id) {
			if t.Sched, err = fs.TenantSchedule(index, id); err != nil {
				return nil, fmt.Errorf("fleet: %s: %w", id, err)
			}
		} else {
			t.Sched = &chaos.Schedule{}
		}
	}
	t.allocPlant.Theta = cfg.Theta
	t.Plant = &t.allocPlant
	if cfg.Serverless {
		t.ScaleToZero = true
		t.IdleEps = IdleEps(cfg.Theta)
		t.sless, err = cluster.NewServerless(cluster.ServerlessConfig{
			WakeSeconds: wakeSeconds,
			StepSeconds: series.Step.Seconds(),
			WakeCost:    wakeCost,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", id, err)
		}
		t.Plant = &cluster.ZeroPlant{AllocPlant: cluster.AllocPlant{Theta: cfg.Theta}, Serverless: t.sless, IdleEps: t.IdleEps}
	}
	recovered, err := t.Start()
	if err != nil {
		return nil, err
	}
	if recovered != nil {
		t.sloBlob = recovered.SLO
	}
	return t, nil
}

// buildStrategy is the fleet's Tenant.Build: it trains (model == nil) or
// restores the configured forecaster and assembles the tenant's bare
// strategy.
func buildStrategy(cfg Config, t *Tenant, model []byte, rho float64) (scaler.Strategy, forecast.Snapshotter, float64, error) {
	if cfg.Strategy == StrategyReactiveMax {
		return &scaler.ReactiveMax{Window: 6, Theta: cfg.Theta}, nil, 0, nil
	}
	qf, snapper := buildForecaster(cfg)
	if model != nil {
		t.blob = model
		if err := snapper.Load(&t.blob); err != nil {
			return nil, nil, 0, fmt.Errorf("restoring %s from checkpoint: %w", qf.Name(), err)
		}
	} else if err := qf.Fit(t.Series.Slice(0, t.TrainEnd)); err != nil {
		return nil, nil, 0, err
	}
	if cfg.Strategy != StrategyAdaptive {
		return &scaler.Robust{Forecaster: t.Faulty(qf), Tau: cfg.Tau, Theta: cfg.Theta}, snapper, 0, nil
	}
	if rho <= 0 {
		var err error
		if rho, err = scaler.CalibrateRho(qf, t.Series.Slice(0, t.TrainEnd), cfg.Horizon); err != nil {
			return nil, nil, 0, err
		}
	}
	return &scaler.Adaptive{Forecaster: t.Faulty(qf), Tau1: cfg.Tau, Tau2: cfg.Tau2, Rho: rho, Theta: cfg.Theta}, snapper, rho, nil
}

// The backpressure breaker: a tenant clipped scaler.BreakerThreshold
// consecutive rounds is quarantined to reactive planning for
// quarantineRounds rounds instead of thrashing the pool.
const quarantineRounds = 8

// admit is the shared-capacity admission barrier between the plan and
// apply phases: with a pool configured it clips every pending plan so
// the fleet's aggregate allocation never exceeds the budget at any step,
// shedding best-effort tenants first (proportional fair share inside the
// partially-shed class), trips the per-tenant backpressure breaker into
// quarantine after repeated clipping, and journals each shed round. Runs
// sequentially in tenant index order, so every outcome is deterministic.
// Pool-level chaos (capacity collapse, admission-RPC rejects) anchors to
// the first active tenant's replay position.
func (c *Controller) admit(active []*Tenant) {
	cfg := c.cfg
	if cfg.PoolNodes <= 0 || len(active) == 0 {
		return
	}
	anchor := active[0].origin - active[0].TrainEnd
	h := cfg.Horizon
	if c.chaosSched.AdmissionRejectAt(anchor) {
		// The admission RPC is down. Fail safe: hold every tenant at its
		// last admitted allocation instead of racing unadmitted plans past
		// the pool. The round carries the annotation but does not count
		// toward shed or quarantine accounting — the fault is the control
		// plane's, not the tenants'.
		chaos.CountInjected(chaos.AdmissionReject)
		c.admissionRejects++
		fleetAdmissionRejects.Inc()
		for _, t := range active {
			for j := range t.round.Nodes {
				t.round.Nodes[j] = t.prevAlloc
			}
			t.shedReason = "admission-reject"
		}
		return
	}
	n := len(active)
	if cap(c.classBuf) < n {
		c.classBuf = make([]PriorityClass, n)
	}
	classes := c.classBuf[:n]
	for i, t := range active {
		classes[i] = t.Class
	}
	if cap(c.demandBuf) < n {
		c.demandBuf = make([]int, n)
	}
	demands := c.demandBuf[:n]
	collapsed := false
	for j := 0; j < h; j++ {
		capacity := cfg.PoolNodes
		if f := c.chaosSched.PoolFactorAt(anchor + j); f < 1 {
			collapsed = true
			capacity = int(float64(capacity) * f)
		}
		for i, t := range active {
			demands[i] = t.round.Nodes[j]
		}
		c.admitBuf = admitStep(demands, classes, capacity, c.admitBuf)
		admitted := 0
		for i, t := range active {
			admitted += c.admitBuf[i]
			if clip := t.round.Nodes[j] - c.admitBuf[i]; clip > 0 {
				t.round.Nodes[j] = c.admitBuf[i]
				t.shedRound += clip
			}
		}
		if j == 0 && capacity > 0 {
			util := float64(admitted) / float64(capacity)
			fleetPoolUtilization.Set(util)
			if util > c.peakUtil {
				c.peakUtil = util
			}
		}
	}
	if collapsed {
		chaos.CountInjected(chaos.PoolCollapse)
	}
	clipped, shedNodes := 0, int64(0)
	for _, t := range active {
		if t.shedRound > 0 {
			clipped++
			shedNodes += int64(t.shedRound)
			t.clippedRounds++
			t.shedTotal += int64(t.shedRound)
			if t.shedReason == "" {
				t.shedReason = "pool-exhausted"
			}
			if t.quarantine.Failure() {
				fleetQuarantinesTotal.Inc()
				obs.DefaultJournal.RecordTenantAt(t.Now(), t.ID, "quarantine",
					fmt.Sprintf("quarantined to reactive planning for %d rounds after %d consecutive clipped rounds", quarantineRounds, scaler.BreakerThreshold),
					map[string]float64{"rounds": quarantineRounds, "clipped_rounds": scaler.BreakerThreshold})
			}
		} else {
			t.quarantine.Success()
		}
	}
	if clipped > 0 {
		c.shedRounds++
		fleetShedRounds.Inc()
		fleetAdmissionClips.Add(float64(clipped))
		fleetShedNodesTotal.Add(float64(shedNodes))
		obs.DefaultJournal.RecordTenantAt(active[0].Now(), "", "admission-shed",
			fmt.Sprintf("pool admission clipped %d tenants by %d nodes this round", clipped, shedNodes),
			map[string]float64{"clipped": float64(clipped), "shed_nodes": float64(shedNodes)})
	}
	quarantined := 0
	for _, t := range active {
		// A round planned under quarantine is one tick of its cooldown; the
		// tick that ends it clears the clipped-round streak, so re-entry
		// needs scaler.BreakerThreshold fresh clipped rounds, not one probe.
		if t.shedReason == "quarantine" && t.quarantine.Tick() == scaler.BreakerHalfOpen {
			t.quarantine.Success()
			obs.DefaultJournal.RecordTenantAt(t.Now(), t.ID, "unquarantine",
				"quarantine expired; re-entering predictive planning", nil)
		}
		if t.quarantined() {
			quarantined++
		}
	}
	fleetQuarantinedGauge.Set(float64(quarantined))
}

// injectWakeStorm applies a scheduled correlated flash crowd: every
// parked tenant is forced awake and its pending plan floored at one
// node, so the whole parked population cold-starts simultaneously —
// stressing wake latency and pool admission in the same round. Runs
// sequentially in index order between the plan phase and the admission
// barrier; a fleet without the serverless model never parks, so the
// storm window has nothing to strike and the round is untouched.
func (c *Controller) injectWakeStorm(active []*Tenant) {
	if !c.cfg.Serverless || c.chaosSched == nil || len(active) == 0 {
		return
	}
	anchor := active[0].origin - active[0].TrainEnd
	if !c.chaosSched.WakeStormAt(anchor) {
		return
	}
	chaos.CountInjected(chaos.WakeStorm)
	forced := 0
	for _, t := range active {
		if t.wakeGuard == nil || !t.wakeGuard.ForceWake() {
			continue
		}
		forced++
		t.wakeTr = scaler.WakeStorm
		for j := range t.round.Nodes {
			if t.round.Nodes[j] < 1 {
				t.round.Nodes[j] = 1
			}
		}
	}
	fleetWakeStorms.Inc()
	obs.DefaultJournal.RecordTenantAt(active[0].Now(), "", "wake-storm",
		fmt.Sprintf("wake storm forced %d parked tenant(s) awake simultaneously", forced),
		map[string]float64{"forced": float64(forced)})
}

// Run drives the fleet to completion (or cfg.MaxRounds, or context
// cancellation), checkpointing every CheckpointInterval rounds and once
// more at exit. Each round runs a parallel plan phase, the sequential
// admission barrier, and a parallel apply phase; per-tenant decisions
// are bit-identical for any worker count. Run reads the clock on its own
// goroutine at each stage boundary, never per tenant. Its barriers record
// plan counts, journal events and the resilience gauges.
func (c *Controller) Run(ctx context.Context) (*Report, error) {
	cfg := c.cfg
	active := make([]*Tenant, 0, len(c.tenants))
	for {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		if cfg.MaxRounds > 0 && c.rounds >= cfg.MaxRounds {
			break
		}
		start := obs.Mono()
		active = active[:0]
		for _, t := range c.tenants {
			if t.Active() {
				active = append(active, t)
			}
		}
		if len(active) == 0 {
			break
		}
		parallel.ForEachWorkerSpan("fleet-plan", cfg.Workers, len(active), func(_, i int) {
			_ = active[i].plan()
		})
		// Count the round's plans, one add per shared counter, and journal
		// its events in tenant order.
		var err error
		for _, t := range active {
			t.journal()
			t.journalWake(true)
			if err == nil {
				err = t.err
			}
		}
		recordPlans(cfg.Horizon, active...)
		if err != nil {
			return nil, err
		}
		// The admission barrier is sequential and index-ordered: clipping,
		// shedding, quarantine transitions and their journal entries are a
		// pure function of the round's pending plans, so the outcome is
		// identical for any worker count. Wake storms fire first so the
		// flash crowd's forced wakes contend for pool admission the same
		// round they strike.
		planned := obs.Mono()
		c.injectWakeStorm(active)
		c.admit(active)
		admitted := obs.Mono()
		c.growScratch(len(active))
		parallel.ForEachWorkerSpan("fleet-apply", cfg.Workers, len(active), func(w, i int) {
			_ = active[i].apply(c.scratch[w])
		})
		for _, t := range active {
			t.journal()
			if err = t.err; err != nil {
				return nil, err
			}
			t.journalWake(false)
		}
		publishStates(c.tenants...)
		applied := obs.Mono()
		round := (applied - start).Seconds()
		c.dur.Observe(round)
		fleetPlanSeconds.Observe(round)
		// Health-plane observation happens after the round barrier, over
		// totals read in index order — a pure function of the round's
		// outcome, so alert firing ticks are worker-count independent.
		var steps, viol int64
		parked := 0
		for _, t := range c.tenants {
			steps += int64(t.steps)
			viol += int64(t.violations)
			if t.sless != nil && t.sless.Parked() {
				parked++
			}
		}
		if cfg.Serverless {
			fleetParkedGauge.Set(float64(parked))
		}
		if c.slo != nil {
			c.slo.ObserveAt(c.tenants[0].Now(),
				uint64(viol-c.lastViol), uint64(steps-c.lastSteps))
			c.lastSteps, c.lastViol = steps, viol
		}
		c.foldCalibration()
		c.rounds++
		fleetRoundsTotal.Inc()
		folded := obs.Mono()
		c.phases.Plan += (planned - start).Seconds()
		c.phases.Admit += (admitted - planned).Seconds()
		c.phases.Apply += (applied - admitted).Seconds()
		c.phases.Fold += (folded - applied).Seconds()
		if c.segs != nil && c.rounds%cfg.CheckpointInterval == 0 {
			c.checkpoint(folded)
		}
	}
	if c.segs != nil && c.rounds != c.lastCkpt {
		c.checkpoint(obs.Mono())
	}
	return c.report(), nil
}

// recordPlans adds the rounds of h steps the tenants' planners returned
// to plans_total in one add per counter: a fleet's tenants plan with one
// strategy configuration, so their planners share a name.
func recordPlans(h int, tenants ...*Tenant) {
	rounds := 0
	for _, t := range tenants {
		rounds, t.planned = rounds+t.planned, 0
	}
	scaler.CountPlans(tenants[0].planner.Name(), rounds, rounds*h)
}

// growScratch readies a round scratch per worker of an apply stage over n
// tenants.
func (c *Controller) growScratch(n int) {
	for len(c.scratch) < parallel.Workers(c.cfg.Workers, n) {
		c.scratch = append(c.scratch, newRoundScratch(c.cfg.Horizon))
	}
}

// foldCalibration publishes the fleet's calibration gauges: every
// tenant's window pooled in index order, after the round barrier, so the
// exported values do not depend on which worker graded a step last.
func (c *Controller) foldCalibration() {
	for _, t := range c.tenants {
		c.calFold.Add(t.cal)
	}
	c.calFold.Publish()
}

// checkpoint snapshots every tenant into its slot, batched across the
// worker pool (each encode touches only that tenant's slot), then commits
// the slots in index order as one segment: one file and one fsync per
// round, with bytes that do not depend on the worker count. A failure
// logs through the journal and keeps flying. The checkpoint phase's time
// counts from start.
func (c *Controller) checkpoint(start time.Duration) {
	parallel.ForEachWorkerSpan("fleet-checkpoint", c.cfg.Workers, len(c.tenants), func(_, i int) {
		_ = c.tenants[i].checkpoint() // journalled below
	})
	for _, t := range c.tenants {
		t.journal()
	}
	if _, err := c.segs.Commit(); err != nil {
		obs.DefaultJournal.RecordTenantAt(c.tenants[0].Now(), "", "checkpoint-error",
			fmt.Sprintf("segment commit after round %d failed: %v", c.rounds, err), nil)
	}
	c.lastCkpt = c.rounds
	c.phases.Checkpoint += (obs.Mono() - start).Seconds()
}
