package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
	"robustscale/internal/wire"
)

// fnv64 constants for the rolling allocation hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// ErrConfig is wrapped by every rejection of a control loop's
// configuration (its sizes, names and presets), so a command can tell a
// nonsense command line from a failed run.
var ErrConfig = errors.New("invalid configuration")

// CheckSizes is the one copy of the rule on the sizes every control loop
// is built from: a positive planning horizon, at least one full round to
// replay, and a positive per-node threshold. Anything else spins, panics
// or replays nonsense deep inside the loop.
func CheckSizes(horizon, replay int, theta float64) error {
	switch {
	case horizon <= 0:
		return fmt.Errorf("%w: non-positive horizon %d", ErrConfig, horizon)
	case replay < horizon:
		return fmt.Errorf("%w: replay span %d shorter than horizon %d", ErrConfig, replay, horizon)
	case !(theta > 0):
		return fmt.Errorf("%w: non-positive threshold %v", ErrConfig, theta)
	}
	return nil
}

// loopExtra is the tenant's owner-defined checkpoint section
// (persist.State.Extra): loop accounting that no existing component
// covers, carried across restarts so a warm-started tenant's rolling
// hash and cost totals continue instead of restarting from zero.
type loopExtra struct {
	// AllocHash is the rolling FNV-1a hash over every allocation the
	// tenant ever committed.
	AllocHash uint64
	// Cost is the cumulative node-steps the tenant has paid for.
	Cost int64
	// Pool counters and the quarantine breaker's blob.
	ShedNodes     int64
	ClippedRounds int
	Quarantine    []byte
	// Serverless wake state (empty/zero without scale-to-zero): the
	// wake-guard hysteresis machine, the per-tenant plant mid-wake state,
	// the wake-latency sketch and the parked-step total. Restoring them is
	// what lets a kill mid-wake resume bit-identically.
	Wake        []byte
	Plant       []byte
	WakeLat     []byte
	ParkedSteps int64
}

// appendExtra appends the Extra section: loopExtra's fields in declaration
// order (layout in DESIGN.md §8). Nothing in it can be skipped or
// defaulted, so a field added here changes persist.SegmentVersion too;
// TestExtraCodecCoversEveryField fails until it is in both functions.
func appendExtra(b []byte, ex *loopExtra) []byte {
	b = binary.AppendUvarint(b, ex.AllocHash)
	b = wire.AppendVarints(b, ex.Cost, ex.ShedNodes, int64(ex.ClippedRounds))
	for _, sec := range [...][]byte{ex.Quarantine, ex.Wake, ex.Plant, ex.WakeLat} {
		b = wire.AppendSection(b, sec)
	}
	return binary.AppendVarint(b, ex.ParkedSteps)
}

// decodeExtra is appendExtra's inverse; the blobs alias the section.
func decodeExtra(blob []byte) (loopExtra, error) {
	r := wire.NewReader(blob)
	ex := loopExtra{
		AllocHash: r.Uvarint(), Cost: r.Varint(), ShedNodes: r.Varint(),
		ClippedRounds: r.Int(), Quarantine: r.Section(),
		Wake: r.Section(), Plant: r.Section(), WakeLat: r.Section(), ParkedSteps: r.Varint(),
	}
	return ex, r.Done()
}

// checkpointStore is where a tenant's snapshots go and come back from. A
// tenant on its own uses a persist.Manager over its StateDir, which
// commits each checkpoint as a one-record segment; the fleet controller
// hands each tenant a slot of the fleet's segment store, whose Write only
// frames the record — the controller commits the round.
type checkpointStore interface {
	Recover() (*persist.State, persist.RecoverInfo, error)
	Write(*persist.State) (string, error)
}

// Plant is the actuation-and-grading seam of the apply stage; the three
// implementations live in package cluster. A fleet tenant gets the plain
// integer allocation or, with Config.Serverless, the scale-to-zero plant;
// the single-tenant daemon drives the simulated cluster.
type Plant interface {
	Reset(at time.Time, nodes int) error
	ScaleTo(n int) error
	Size() int
	Step(r *cluster.StepResult, apply func(int) error, target int, f chaos.StepFaults, w float64)
}

// Step is one replayed step as the OnStep hook sees it: the series index
// and workload, the round's admitted plan with this step's position in
// it (the slice is rewritten next round, so a hook that keeps it copies
// it), the provisioned count before the step, and what the plant did.
type Step struct {
	Index    int
	Workload float64
	Plan     []int
	I        int
	Prev     int
	cluster.StepResult
}

// Tenant is one isolated control loop and the single stateful
// implementation of the round: trace, forecaster, calibration, guard,
// breaker, wake guard, plant and checkpoint store are all private,
// so a round touches nothing shared beyond the process-wide (atomic)
// metric counters. A client fills in the exported parts, calls Start,
// then drives Plan and Apply once per round and Checkpoint at its own
// cadence: the controller for N tenants in lock step with the admission
// barrier between the two stages, the single-tenant daemon for one, the
// experiment package's resilience cell for one per (profile, strategy).
type Tenant struct {
	// ID is the tenant id; Index its position in the fleet.
	ID    string
	Index int
	// Archetype names the workload archetype ("alibaba" or "google").
	Archetype string
	// Seed is the derived per-tenant seed.
	Seed int64
	// Class is the tenant's admission priority class.
	Class PriorityClass

	// Series is the workload trace: [0, TrainEnd) is training history,
	// the rest is replayed Horizon steps per round.
	Series            *timeseries.Series
	TrainEnd, Horizon int
	// Fingerprint identifies the run configuration; only a checkpoint
	// carrying the identical one warm-starts the tenant. Its Theta is the
	// threshold the loop grades against.
	Fingerprint persist.Fingerprint
	// Build trains (model == nil) or restores the forecaster and returns
	// the bare strategy, the forecaster's snapshotter (nil for model-free
	// strategies) and the adaptive uncertainty threshold in effect. rho
	// is the one the recovered checkpoint carried (0 on a cold start):
	// reusing it keeps warm-started planning bit-identical. Planning-time
	// inference goes through Faulty, everything else to the genuine model.
	Build func(model []byte, rho float64) (scaler.Strategy, forecast.Snapshotter, float64, error)
	// ForecasterKind labels the model held in checkpoints.
	ForecasterKind string
	// GuardConfig wraps the strategy in the resilience guard; without it
	// a planning error ends the loop instead of holding the round.
	GuardConfig *scaler.GuardConfig
	// Backoff and Breaker (required) shape the apply path.
	Backoff scaler.BackoffConfig
	Breaker *scaler.Breaker
	// Sched is the tenant's fault schedule; nil means no chaos.
	Sched *chaos.Schedule
	// WakeConfig turns on scale-to-zero: the wake guard shapes every plan
	// through park/wake hysteresis, judging idleness against IdleEps.
	WakeConfig *scaler.WakeGuardConfig
	IdleEps    float64
	// Plant is what the apply stage actuates and grades against.
	Plant Plant
	// StateDir is the tenant's own checkpoint directory (empty disables
	// durability), Retain how many snapshots it keeps.
	StateDir string
	Retain   int
	// OnStep observes every replayed step after it is graded and counted.
	OnStep func(Step)
	// Sections lets the client ride its own state on the tenant's
	// checkpoints: it sees each snapshot just before the write (Start
	// returns the recovered one for the way back).
	Sections func(*persist.State)

	planner scaler.Strategy
	guard   *scaler.Guard
	snapper forecast.Snapshotter
	applier func(int) error
	cal     *cluster.Calibration
	store   checkpointStore
	rho     float64

	// Loop state; the plan/admit/apply stages are the only writers after
	// Start (parallel stages touch only per-tenant fields, the sequential
	// admission barrier runs in index order). rejected and coldReason say
	// what recovery turned down.
	origin     int
	cursor     int
	prevAlloc  int
	steps      int
	violations int
	holds      int
	cost       int64
	allocHash  uint64
	warm       bool
	rejected   []string
	coldReason string
	err        error

	// Admission / quarantine state. round is the planning stage's output
	// awaiting admission and Apply: Nodes is the pending plan (aliases
	// planBuf; a held plan when planning failed), Fan and Decision what
	// the strategy that planned it — the tenant's own or the quarantine
	// fallback, which has no fan — put behind it. quarantine counts
	// consecutive clipped rounds; while it is open the tenant plans
	// reactively, one cooldown tick per round served.
	round         scaler.Round
	reactive      *scaler.ReactiveMax
	shedRound     int
	shedReason    string
	shedTotal     int64
	clippedRounds int
	quarantine    scaler.Breaker
	roundDur      time.Duration // plan plus apply, read on a lapClock

	// chaosCursor positions Sched; faulted reports whether any fault
	// targets this tenant, and faults is then the fault window of the
	// round being applied. own is the round scratch of a tenant applied
	// on its own.
	chaosCursor *chaos.Cursor
	faulted     bool
	faults      *chaos.Window
	own         *roundScratch

	// Scale-to-zero state; nil/zero without WakeConfig. wakeGuard shapes
	// plans with park/wake hysteresis; wakeLat streams completed-wake
	// latency into a mergeable sketch; wakeReason annotates the round's
	// decision record for -explain; sless is the scale-to-zero plant's
	// state machine, held for its snapshot and counters.
	wakeGuard   *scaler.WakeGuard
	sless       *cluster.Serverless
	wakeLat     *obs.Sketch
	parkedSteps int64
	wakeReason  string

	histView *timeseries.Series
	planBuf  []int
	// sloBlob is the fleet SLO tracker state recovered from this
	// tenant's checkpoint (only tenant 0 carries it).
	sloBlob []byte
	// seriesRestored says the fleet read Series back from its series file
	// instead of generating it.
	seriesRestored bool

	violCounter  *obs.Counter
	roundCounter *obs.Counter
	wakeStarts   *obs.Counter
	wakeFailures *obs.Counter
	wakeLatHist  *obs.Histogram
}

// Now is the tenant's virtual clock, stamping its components' journal
// events.
func (t *Tenant) Now() time.Time {
	i := t.cursor
	if i >= t.Series.Len() {
		i = t.Series.Len() - 1
	}
	return t.Series.TimeAt(i)
}

// Rounds returns how many planning rounds the tenant has completed over
// its whole lifetime (including rounds replayed before a warm restart).
func (t *Tenant) Rounds() int { return (t.origin - t.TrainEnd) / t.Horizon }

// Origin is the series index of the next unplanned round; Active reports
// whether a full round is left to plan there.
func (t *Tenant) Origin() int  { return t.origin }
func (t *Tenant) Active() bool { return t.err == nil && t.origin+t.Horizon <= t.Series.Len() }

// Err is the error that ended the loop: an unguarded planning failure or
// a calibration fault. A held round is not one.
func (t *Tenant) Err() error { return t.err }

// Recovery lists the snapshots Start rejected as corrupt and, after
// a cold start next to existing snapshots, why none was resumable.
func (t *Tenant) Recovery() ([]string, string) { return t.rejected, t.coldReason }

// Totals are a tenant's lifetime loop counters, carried across restarts;
// Nodes is the provisioned count at the last graded step and Cost the
// node-steps paid so far.
type Totals struct {
	Steps, Violations, Holds, Nodes int
	ParkedSteps, Cost               int64
}

func (t *Tenant) Totals() Totals {
	return Totals{t.steps, t.violations, t.holds, t.prevAlloc, t.parkedSteps, t.cost}
}

// Guard, WakeGuard and Calibration expose the loop's components for
// status and end-of-run reporting (each nil when the tenant runs without
// it); Fan is the quantile fan behind the round being applied.
func (t *Tenant) Guard() *scaler.Guard              { return t.guard }
func (t *Tenant) WakeGuard() *scaler.WakeGuard      { return t.wakeGuard }
func (t *Tenant) Calibration() *cluster.Calibration { return t.cal }
func (t *Tenant) Fan() *forecast.QuantileForecast   { return t.round.Fan }

func (t *Tenant) replayStep() int   { return t.origin - t.TrainEnd }
func (t *Tenant) quarantined() bool { return t.quarantine.State() == scaler.BreakerOpen }
func (t *Tenant) theta() float64    { return t.Fingerprint.Theta }

// Faulty routes a forecaster's planning-time inference through the
// tenant's fault schedule; without one it is the identity.
func (t *Tenant) Faulty(qf forecast.QuantileForecaster) forecast.QuantileForecaster {
	if t.Sched == nil {
		return qf
	}
	return &chaos.Forecaster{Inner: qf, Schedule: t.Sched, Cursor: t.chaosCursor}
}

// Start assembles the loop from its parts: it recovers the newest valid
// snapshot from its store (falling back past corrupt ones), builds the
// strategy — restoring the model instead of training when the snapshot
// is resumable: same fingerprint, origin on a round boundary of this
// replay — wires guard, applier and wake guard, and restores their
// state. It returns the snapshot it resumed from (nil on a cold start)
// so the client can restore what its Sections hook added.
func (t *Tenant) Start() (*persist.State, error) {
	if err := CheckSizes(t.Horizon, t.Series.Len()-t.TrainEnd, t.theta()); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", t.ID, err)
	}
	t.origin, t.cursor, t.prevAlloc = t.TrainEnd, t.TrainEnd, 1
	t.allocHash = fnvOffset
	t.histView = &timeseries.Series{Name: t.Series.Name, Start: t.Series.Start, Step: t.Series.Step}
	t.violCounter = fleetTenantViolations.With(t.ID)
	t.roundCounter = fleetTenantRounds.With(t.ID)
	if t.Sched != nil {
		t.chaosCursor = &chaos.Cursor{}
		t.faulted = !t.Sched.Empty()
	}
	if t.WakeConfig != nil {
		t.wakeGuard = &scaler.WakeGuard{Config: *t.WakeConfig, Tenant: t.ID, Clock: t.Now}
		t.wakeLat = obs.NewSketch(obs.DefaultSketchAlpha)
		t.wakeStarts = fleetWakeStarts.With(t.ID)
		t.wakeFailures = fleetWakeFailures.With(t.ID)
		t.wakeLatHist = fleetWakeLatency.With(t.ID)
	}

	// Recover before training: a valid snapshot supplies the model and
	// loop state, skipping the cold fit entirely.
	var recovered *persist.State
	var extra loopExtra
	if t.store == nil && t.StateDir != "" {
		mgr, err := persist.NewManager(t.StateDir, t.ID, t.Retain)
		if err != nil {
			return nil, fmt.Errorf("fleet: %s: opening state dir: %w", t.ID, err)
		}
		t.store = mgr
	}
	if t.store != nil {
		st, info, rerr := t.store.Recover()
		t.rejected = info.Rejected
		switch {
		case rerr != nil:
			t.coldReason = rerr.Error()
		case st == nil:
			// Nothing checkpointed yet: first run, plain cold start.
		case st.Fingerprint != t.Fingerprint:
			// A neighbour's (or stale-config) snapshot never warm-starts
			// this tenant.
			t.coldReason = fmt.Sprintf("checkpoint %s is from a different run configuration", info.Path)
		case st.Origin < t.TrainEnd || st.Origin > t.Series.Len() || (st.Origin-t.TrainEnd)%t.Horizon != 0:
			t.coldReason = fmt.Sprintf("checkpoint origin %d is not a round boundary of replay [%d, %d)",
				st.Origin, t.TrainEnd, t.Series.Len())
		default:
			// Without the rolling hash and cost accounting a warm start
			// would resume to a wrong fleet hash, so a snapshot whose Extra
			// section does not decode is not resumable either.
			var err error
			if extra, err = decodeExtra(st.Extra); err != nil {
				t.coldReason = fmt.Sprintf("checkpoint %s carries loop accounting that does not decode (%v)", info.Path, err)
			} else {
				recovered = st
			}
		}
	}

	var strat scaler.Strategy
	var err error
	if recovered != nil {
		if strat, t.snapper, t.rho, err = t.Build(recovered.Forecaster, recovered.Rho); err != nil {
			// A snapshot whose model no longer loads degrades this one tenant
			// to a cold start; its decisions are re-derived deterministically
			// from the seed, so totals are unaffected.
			t.coldReason = fmt.Sprintf("restoring the forecaster from the checkpoint failed (%v)", err)
			recovered = nil
		}
	}
	if recovered == nil {
		if strat, t.snapper, t.rho, err = t.Build(nil, 0); err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", t.ID, err)
		}
	}
	t.Build = nil // only Start needs it; drop whatever it captured

	// The guard repairs fans and falls back down the ladder on forecaster
	// errors.
	t.planner = strat
	if t.GuardConfig != nil {
		t.guard = &scaler.Guard{Inner: strat, Config: *t.GuardConfig, Clock: t.Now}
		t.planner = t.guard
	}
	// Scale actions go through retries and the circuit breaker: while the
	// (possibly chaos-wrapped) control plane fails, the allocation holds.
	apply := t.Plant.ScaleTo
	if t.faulted {
		apply = chaos.WrapApply(apply, t.Plant.Size, t.stepFaults)
	}
	t.applier = (&scaler.Applier{Apply: apply, Backoff: t.Backoff, Breaker: t.Breaker, Clock: t.Now}).ScaleTo

	if recovered != nil {
		t.restore(recovered, &extra)
	}
	if err := t.Plant.Reset(t.Now(), t.prevAlloc); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", t.ID, err)
	}
	return recovered, nil
}

// restore applies a recovered snapshot's loop state, its decoded Extra
// section and its component state. A component whose blob does not load
// keeps the fresh state it was built with; one restore-degraded journal
// event names every component that did.
func (t *Tenant) restore(st *persist.State, extra *loopExtra) {
	t.warm = true
	t.origin, t.cursor = st.Origin, st.Origin
	if st.PrevAlloc > 0 {
		t.prevAlloc = st.PrevAlloc
	}
	t.steps, t.violations, t.holds = st.Steps, st.Violations, st.Holds
	t.allocHash, t.cost = extra.AllocHash, extra.Cost
	t.shedTotal, t.clippedRounds = extra.ShedNodes, extra.ClippedRounds
	t.parkedSteps = extra.ParkedSteps
	var fresh []string
	var rd wire.Bytes // one reader for every blob, read in place
	load := func(component string, blob []byte, into func(io.Reader) error) {
		if rd = blob; len(blob) > 0 && into(&rd) != nil {
			fresh = append(fresh, component)
		}
	}
	load("quarantine breaker", extra.Quarantine, t.quarantine.Load)
	if t.wakeGuard != nil {
		load("wake guard", extra.Wake, t.wakeGuard.Load)
		load("wake-latency sketch", extra.WakeLat, t.wakeLat.Load)
	}
	if t.sless != nil {
		load("serverless plant", extra.Plant, t.sless.Load)
	}
	if t.guard != nil {
		load("guard", st.Guard, t.guard.Load)
	}
	load("breaker", st.Breaker, t.Breaker.Load)
	load("calibration", st.Calibration, func(r io.Reader) error {
		cal, err := cluster.LoadCalibration(r)
		if err == nil {
			t.cal = cal
		}
		return err
	})
	t.journalDegraded("restore-degraded", "warm start at origin %d with fresh state for: %s (checkpoint sections did not load)", fresh)
}

// journalDegraded records, once, the components a restore or a checkpoint
// went ahead without; format takes the origin and their names.
func (t *Tenant) journalDegraded(kind, format string, components []string) {
	if len(components) > 0 {
		obs.DefaultJournal.RecordTenantAt(t.Now(), t.ID, kind,
			fmt.Sprintf(format, t.origin, strings.Join(components, ", ")),
			map[string]float64{"components": float64(len(components))})
	}
}

// holdPlan fills the tenant's plan buffer with its previous allocation —
// the fail-safe outcome of an exhausted fallback ladder or a refused
// admission round.
func (t *Tenant) holdPlan(h int) []int {
	if cap(t.planBuf) < h {
		t.planBuf = make([]int, h)
	}
	plan := t.planBuf[:h]
	for i := range plan {
		plan[i] = t.prevAlloc
	}
	return plan
}

// Plan runs the planning stage of one round: take the round from the
// tenant's strategy or the quarantine fallback (with any chaos injection
// wired into the forecaster), shape its plan through the wake guard, and
// leave it pending for admission and Apply. The reused history view shares the
// trace's backing array, so warm forecasters see a continuous history
// and the steady-state round allocates nothing. Plan writes only
// tenant-owned state and process-wide atomic counters, preserving the
// worker-count determinism contract. It returns the planning error, if
// any: with a guard the round holds the previous allocation (and counts
// a hold); without one the error also ends the loop (Err).
func (t *Tenant) Plan() error {
	var clock lapClock
	return t.plan(&clock)
}

// plan is Plan timed on a worker's chained clock.
func (t *Tenant) plan(clock *lapClock) error {
	clock.start()
	origin, h := t.origin, t.Horizon
	if t.chaosCursor != nil {
		t.chaosCursor.Set(t.replayStep())
	}
	t.histView.Values = t.Series.Values[:origin]
	hist := t.histView
	if t.Sched != nil {
		// Telemetry faults corrupt a copy of the visible history (warm
		// forecasters notice the broken backing-array identity and
		// recondition from scratch, bit-identically); the underlying trace
		// stays pristine for grading.
		hist = chaos.CorruptTelemetry(t.histView, t.Sched, t.replayStep())
	}
	planner, reason := t.planner, ""
	if t.quarantined() {
		// Quarantined: the backpressure breaker pinned this tenant to
		// reactive planning so it stops thrashing the pool.
		if t.reactive == nil {
			t.reactive = &scaler.ReactiveMax{Window: 6, Theta: t.theta()}
		}
		planner, reason = t.reactive, "quarantine"
	}
	round, err := planner.PlanInto(hist, h, t.planBuf)
	if round.Nodes != nil {
		t.planBuf = round.Nodes
	}
	if err != nil {
		err = fmt.Errorf("fleet: %s planning at %d: %w", t.ID, origin, err)
		if t.guard == nil && planner == t.planner {
			t.err = err
			return err
		}
		t.holds++
		round = scaler.Round{Nodes: t.holdPlan(h)}
	}
	t.round = round
	t.shedRound = 0
	t.shedReason = reason
	if t.wakeGuard != nil {
		// Park/wake hysteresis shapes the plan before admission: an idle
		// tenant's plan goes to zero (after the hysteresis clears), a
		// parked tenant's returning demand wakes it, and an open wake
		// breaker floors everything at the keep-warm count.
		recent := t.Series.Values[max(0, origin-h):origin]
		t.wakeReason = t.wakeGuard.Shape(round.Nodes, scaler.Idle(round.Nodes, recent, t.IdleEps)).Reason()
	}
	t.roundDur = clock.lap()
	return err
}

// lapClock chains a worker's obs.Mono readings across the tenants it
// runs back to back: the reading that ends one tenant's stage starts the
// next one's, so start reads the clock only for a worker's first tenant
// (zero: no reading yet) and lap once per tenant.
type lapClock time.Duration

func (c *lapClock) start() {
	if *c == 0 {
		*c = lapClock(obs.Mono())
	}
}

func (c *lapClock) lap() time.Duration {
	now := lapClock(obs.Mono())
	d := time.Duration(now - *c)
	*c = now
	return d
}

// roundScratch is the working memory of one round: the worker's clock,
// the round's fault window and the result the plant fills at each step.
// Nothing in it outlives the round, so the controller lends one to each
// worker of its plan and apply stages, and a tenant applied on its own
// keeps one.
type roundScratch struct {
	clock   lapClock
	faults  chaos.Window
	stepped cluster.StepResult
}

func newRoundScratch(horizon int) *roundScratch {
	return &roundScratch{faults: chaos.Window{Steps: make([]chaos.StepFaults, horizon)}}
}

// stepFaults is what the chaos-wrapped scale action reads: the step the
// cursor is at and its faults in the round being applied.
func (t *Tenant) stepFaults() (int, chaos.StepFaults) {
	step := t.chaosCursor.Step()
	return step, t.faults.At(step)
}

// Apply runs the post-admission stage of one round: record the
// tenant-labelled decision (annotated with the admission or wake
// outcome), read the round's faults from the schedule once, step the
// plant through every admitted allocation, count violations, cost and
// the rolling allocation hash, feed wake events back into the wake
// guard, and grade the fan's calibration over the round. It returns the
// error that ended the loop, if any, and observes the round's latency on
// the fleet plan-round histogram.
func (t *Tenant) Apply() error {
	if t.own == nil {
		t.own = newRoundScratch(t.Horizon)
	}
	t.own.clock = 0
	if err := t.apply(t.own); err != nil {
		return err
	}
	fleetPlanSeconds.Observe(t.roundDur.Seconds())
	return nil
}

// apply is Apply in the given round scratch, timed on its chained clock
// and leaving the latency to the caller.
func (t *Tenant) apply(s *roundScratch) error {
	s.clock.start()
	origin, plan, fan := t.origin, t.round.Nodes, t.round.Fan
	reason := t.shedReason
	if reason == "" {
		reason = t.wakeReason
	}
	scaler.RecordDecisionAdmitted(t.round.Decision, t.ID, origin, t.Series.TimeAt(origin),
		t.prevAlloc, plan, t.shedRound, reason)
	// A quarantined (reactive) or held round has no fan, so calibration
	// only observes rounds its forecaster drove.
	if fan != nil && t.cal == nil {
		if cal, err := cluster.NewCalibration(fan.Levels, stepsPerDay()); err == nil {
			t.cal = cal
		}
	}
	from := t.replayStep()
	if t.faulted {
		t.faults = &s.faults
		t.faults.Fill(t.Sched, from)
	}
	r := &s.stepped
	for i, target := range plan {
		var f chaos.StepFaults
		if t.faulted {
			t.chaosCursor.Set(from + i)
			if f = t.faults.At(from + i); f.Kills > 0 {
				chaos.CountInjected(chaos.NodeKill)
			}
		}
		w := t.Series.At(origin + i)
		t.Plant.Step(r, t.applier, target, f, w)
		if r.Err != nil {
			t.holds++
		}
		if t.wakeGuard != nil {
			t.noteWake(r.Wake)
		}
		if r.Violated {
			t.violations++
			t.violCounter.Inc()
		}
		t.cost += r.Cost
		t.allocHash = (t.allocHash ^ r.Word) * fnvPrime
		t.steps++
		t.cursor++
		if t.OnStep != nil {
			t.OnStep(Step{Index: origin + i, Workload: w, Plan: plan, I: i, Prev: t.prevAlloc, StepResult: *r})
		}
		t.prevAlloc = r.Nodes
	}
	if fan != nil && t.cal != nil {
		n := min(len(plan), fan.Horizon())
		if err := t.cal.ObserveSteps(t.Series.Values[origin:origin+n], fan.Values[:n]); err != nil {
			t.err = fmt.Errorf("fleet: %s calibration at %d: %w", t.ID, origin, err)
			return t.err
		}
	}
	t.origin = origin + t.Horizon
	t.roundCounter.Inc()
	t.wakeReason = ""
	t.roundDur += s.clock.lap()
	return nil
}

// noteWake feeds one step's zero-boundary events into the wake breaker,
// the wake-latency sketch and the wake counters.
func (t *Tenant) noteWake(out cluster.WakeOutcome) {
	if out.Stalled {
		chaos.CountInjected(chaos.WakeStall)
	}
	if out.PartialApplied {
		chaos.CountInjected(chaos.PartialProvision)
	}
	if out.WakeStarted {
		t.wakeStarts.Inc()
	}
	if out.WakeFailed {
		chaos.CountInjected(chaos.WakeFail)
		t.wakeFailures.Inc()
		t.wakeGuard.OnWakeResult(false)
	}
	if out.WakeCompleted {
		t.wakeGuard.OnWakeResult(true)
		t.wakeLat.Observe(out.WakeLatencySeconds)
		t.wakeLatHist.Observe(out.WakeLatencySeconds)
	}
	if out.Parked {
		t.parkedSteps++
	}
}

// Checkpoint snapshots the tenant's full control-loop state as of the
// next planning origin (round boundaries only, never the per-step hot
// path). A failed checkpoint is journalled, returned and otherwise
// ignored: durability must not take down the loop it protects. Without a
// store it is a no-op.
func (t *Tenant) Checkpoint() error {
	if t.store == nil {
		return nil
	}
	// The snapshot, its loop accounting and the one buffer every component
	// saves into (the sections alias it) are pooled: both stores are done
	// with them when Write returns, and a fleet checkpointing every round
	// would otherwise grow and drop a buffer per section per tenant per
	// round — garbage that shows up in the resident set once a round no
	// longer waits on disk.
	ck := ckptScratch.Get().(*checkpointScratch)
	scratch := &ck.buf
	scratch.Reset()
	defer ckptScratch.Put(ck)
	var unsaved []string
	section := func(component string, c saver) []byte {
		start := scratch.Len()
		if saveSection(component, c, scratch) != nil {
			scratch.Truncate(start)
			unsaved = append(unsaved, component)
			return nil // the owner restores a missing section as fresh state
		}
		return scratch.Bytes()[start:scratch.Len():scratch.Len()]
	}
	st := &ck.st
	*st = persist.State{
		SavedAt:     t.Now(),
		Fingerprint: t.Fingerprint,
		Origin:      t.origin,
		PrevAlloc:   t.prevAlloc,
		Steps:       t.steps,
		Violations:  t.violations,
		Holds:       t.holds,
		Rho:         t.rho,
	}
	if t.snapper != nil {
		st.ForecasterKind = t.ForecasterKind
		if st.Forecaster = section("forecaster", t.snapper); st.Forecaster == nil {
			// A snapshot without the model would warm-start wrong.
			return t.checkpointFailed(errors.New("snapshotting the forecaster failed"))
		}
	}
	if t.cal != nil {
		st.Calibration = section("calibration", t.cal)
	}
	if t.guard != nil {
		st.Guard = section("guard", t.guard)
	}
	st.Breaker = section("breaker", t.Breaker)
	ex := &ck.ex
	*ex = loopExtra{
		AllocHash: t.allocHash, Cost: t.cost,
		ShedNodes: t.shedTotal, ClippedRounds: t.clippedRounds,
		Quarantine:  section("quarantine breaker", &t.quarantine),
		ParkedSteps: t.parkedSteps,
	}
	if t.wakeGuard != nil {
		ex.Wake = section("wake guard", t.wakeGuard)
		ex.WakeLat = section("wake-latency sketch", t.wakeLat)
	}
	if t.sless != nil {
		ex.Plant = section("serverless plant", t.sless)
	}
	if st.Extra = section("loop accounting", ex); st.Extra == nil {
		// Without the rolling hash and cost accounting a warm start would
		// resume to a wrong fleet hash.
		return t.checkpointFailed(errors.New("encoding the loop accounting failed"))
	}
	if t.Sections != nil {
		t.Sections(st)
	}
	if _, err := t.store.Write(st); err != nil {
		return t.checkpointFailed(err)
	}
	// The save side of restore-degraded: a restart from this snapshot runs
	// these components fresh, so say so when that is decided.
	t.journalDegraded("checkpoint-degraded", "checkpoint at origin %d taken without: %s (their Save failed; a restart from it runs them fresh)", unsaved)
	return nil
}

// checkpointScratch is what Checkpoint builds a snapshot in, pooled.
type checkpointScratch struct {
	buf bytes.Buffer
	st  persist.State
	ex  loopExtra
}

var ckptScratch = sync.Pool{New: func() any { return new(checkpointScratch) }}

// saver is a component a checkpoint section is saved from (loopExtra
// through encodeExtra); passing the component, not its Save method value,
// costs a section no allocation.
type saver interface{ Save(io.Writer) error }

func (ex *loopExtra) Save(w io.Writer) error { return encodeExtra(w, *ex) }

// encodeExtra writes the Extra section and saveSection runs one
// component's Save; variables so a test can make either fail.
var (
	encodeExtra = func(w io.Writer, ex loopExtra) error {
		_, err := w.Write(appendExtra(wire.Scratch(w), &ex))
		return err
	}
	saveSection = func(component string, c saver, w io.Writer) error { return c.Save(w) }
)

// checkpointFailed journals and wraps the reason a checkpoint was not
// taken.
func (t *Tenant) checkpointFailed(err error) error {
	obs.DefaultJournal.RecordTenantAt(t.Now(), t.ID, "checkpoint-error",
		fmt.Sprintf("checkpoint at origin %d failed: %v", t.origin, err), nil)
	return fmt.Errorf("fleet: %s: checkpoint at origin %d: %w", t.ID, t.origin, err)
}
