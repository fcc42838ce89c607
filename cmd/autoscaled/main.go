// Command autoscaled is a long-running auto-scaler daemon driving the
// simulated disaggregated database: it replays a synthetic workload in
// accelerated virtual time, re-plans every horizon with the chosen
// strategy, applies allocations to the cluster, and logs every scaling
// action plus periodic utilization summaries.
//
// Usage:
//
//	autoscaled -strategy robust -tau 0.9 -days 7
//	autoscaled -strategy adaptive -tau 0.7 -tau2 0.95
//	autoscaled -strategy reactive-max -listen :8080
//	autoscaled -strategy robust -chaos all    # fault-injected replay
//
// Every strategy runs wrapped in the resilience guard (disable with
// -guard=false): quantile fans are validated and repaired, a forecaster
// failure falls back to the last known-good fan and then to a reactive
// rule, and scale actions run through retry-with-backoff and a circuit
// breaker, holding the current fleet when the control plane is down.
// -chaos <preset> injects deterministic faults at every boundary to
// exercise exactly that machinery.
//
// With -listen set, the daemon serves its observability surface on that
// address: /status (JSON snapshot), /metrics (Prometheus text format:
// status gauges, per-stage control-loop latency histograms, training and
// scaling counters, online forecast-calibration gauges), /journal (the
// bounded event journal as JSON, filterable by ?kind= and ?since_seq=),
// /trace (control-loop spans as Chrome trace-event JSON, loadable in
// Perfetto), /decisions (per-round "why did we scale?" records,
// filterable by ?strategy= &from= &to= &tenant=) and /debug/pprof
// (runtime profiles), and keeps serving after the replay until
// interrupted. /healthz answers 200 as soon as the listener binds;
// /readyz answers 503 until training (or warm-start restore) completes,
// then 200 — probes can gate traffic on it. With -slo-target set (the
// default, 1%), the daemon tracks a rolling error budget over
// -slo-window replay steps and evaluates multi-window burn-rate alert
// rules (-burn-windows overrides the defaults) on every step: /slo
// serves the budget state, /alerts the firing rules plus transition
// history, and every transition lands in the journal as an "alert"
// event. -label-limit caps per-metric label cardinality; overflowing
// label values collapse into a single "other" series.
// -tenant labels everything the daemon emits — /status,
// decision records, journal events and the checkpoint fingerprint —
// so several daemons can share a dashboard; the default id is
// "default".
// -trace-out additionally writes the Chrome trace to a file when the
// replay ends, and -explain prints the decision explanation for a
// series step (or "latest") after the run.
//
// With -state-dir set, the daemon is durable: the full control-plane
// state — forecaster weights, calibration window, guard and breaker
// state, journal and decision rings, the current allocation — is
// checkpointed atomically every -checkpoint-interval rounds and on
// shutdown. A restarted daemon warm-starts from the newest valid
// snapshot (falling back past corrupt ones, then to a cold start) and
// resumes the replay where it left off without retraining. SIGINT and
// SIGTERM stop the loop at a round boundary, write a final checkpoint,
// and drain the observability endpoint before exiting.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"robustscale"
	"robustscale/internal/chaos"
	"robustscale/internal/cluster"
	"robustscale/internal/fleet"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/ops"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(exitCode(run(ctx, os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode reports a run error on stderr and maps it to the process exit
// status: 0 on success (and -h), 2 for a command line that cannot run
// (unparsable flags, a nonsense configuration), 1 for a run that failed.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2 // the FlagSet already printed the problem and the usage
	}
	fmt.Fprintf(stderr, "autoscaled: %v\n", err)
	if errors.Is(err, fleet.ErrConfig) {
		return 2
	}
	return 1
}

// errFlags marks a command line the FlagSet rejected.
var errFlags = errors.New("invalid command line")

// run is the whole daemon: it parses args, replays the workload and
// returns when the replay ends or ctx is cancelled (a signal, in main).
// A cancelled context stops the loop at a round boundary, writes a final
// checkpoint and drains the observability endpoint instead of dying
// mid-write. Deterministic end-of-run totals go to stdout, everything
// else to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	logf := log.New(stderr, "", 0).Printf
	fs := flag.NewFlagSet("autoscaled", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := fleet.DefaultConfig(1)
	def.Theta, def.Horizon, def.SLOWindow = 100, 72, 144
	f := fleet.BindFlags(fs, def)
	cfg := &f.Config
	wakeDef := scaler.WakeGuardConfig{}.WithDefaults()
	var (
		dataset    = fs.String("dataset", "alibaba", "workload: alibaba or google")
		tenant     = fs.String("tenant", obs.DefaultTenant, "tenant id labelling this daemon's decisions, journal events, metrics and checkpoints")
		days       = fs.Int("days", 7, "how many days of workload to replay")
		epochs     = fs.Int("epochs", 6, "forecaster training epochs")
		journalCap int
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event JSON file here when the replay ends (implies tracing)")
		explain    = fs.String("explain", "", `print the decision explanation for a series step index, or "latest", after the replay`)

		applyRetries    = fs.Int("apply-retries", 3, "scale-apply attempts per round (first included)")
		applyBackoff    = fs.Duration("apply-backoff", time.Second, "base backoff between apply retries (doubles per retry)")
		breakerOpenAt   = fs.Int("breaker-threshold", 3, "consecutive failed apply rounds that open the circuit breaker")
		breakerCooldown = fs.Duration("breaker-cooldown", 30*time.Minute, "virtual time the breaker stays open before probing (rounded up to whole replay steps)")

		idleEps      = fs.Float64("idle-eps", 0, "with -serverless, workload level below which the tenant counts as idle (0 = theta/10)")
		parkAfter    = fs.Int("park-after", 0, fmt.Sprintf("with -serverless, consecutive idle rounds before parking (<= 0 = default %d)", wakeDef.MinIdleRounds))
		wakeDebounce = fs.Int("wake-debounce", 0, fmt.Sprintf("with -serverless, rounds after a wake during which parking is refused (<= 0 = default %d)", wakeDef.WakeDebounceRounds))
		roundDelay   = fs.Duration("round-delay", 0, "wall-clock pause after each planning round (paces the replay for live observation and kill/restart drills)")
	)
	fleet.PositiveIntVar(fs, &journalCap, "journal-cap", 1024, "bounded event journal capacity in `entries`")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}

	if err := persist.ValidTenantID(*tenant); err != nil {
		return err
	}
	if *applyRetries <= 0 || *applyBackoff <= 0 || *breakerOpenAt <= 0 || *breakerCooldown <= 0 {
		return fmt.Errorf("%w: -apply-retries %d, -apply-backoff %v, -breaker-threshold %d and -breaker-cooldown %v must all be positive",
			fleet.ErrConfig, *applyRetries, *applyBackoff, *breakerOpenAt, *breakerCooldown)
	}
	// Names no loop knows are refused before -listen binds, the trace is
	// generated or chaos is armed.
	reactive, ok := strategies[cfg.Strategy]
	if !ok {
		return fmt.Errorf("%w: unknown strategy %q", fleet.ErrConfig, cfg.Strategy)
	}
	generate, ok := datasets[*dataset]
	if !ok {
		return fmt.Errorf("%w: unknown dataset %q", fleet.ErrConfig, *dataset)
	}
	var prof chaos.Profile
	if cfg.Chaos != "" {
		var err error
		if prof, err = chaos.Preset(cfg.Chaos); err != nil {
			return fmt.Errorf("%w: %w", fleet.ErrConfig, err)
		}
	}

	// Every run starts from fresh process-wide observability rings, so
	// several runs in one process (the in-process tests) do not see each
	// other's events. The journal is sized before anything records into
	// it; the tracer is enabled only when someone can observe it
	// (-trace-out or -listen), so a bare replay pays the disabled-tracer
	// cost of ~one atomic load per span site.
	obs.DefaultJournal = obs.NewJournal(journalCap)
	obs.DefaultDecisions.Reset()
	obs.DefaultTracer.Reset()
	obs.DefaultTracer.SetEnabled(*traceOut != "" || f.Listen != "")
	// Decision records are the daemon's reason to exist (-explain,
	// /decisions), so capture is always on here; library consumers stay
	// at the disabled default.
	obs.DefaultDecisions.SetEnabled(true)
	obs.Default.SetLabelLimit(f.LabelLimit)

	// The SLO tracker exists before the listener binds so /slo and
	// /alerts answer from the first request; it only starts consuming
	// budget once the replay loop observes steps.
	health := obs.NewHealth()
	var slo *obs.SLOTracker
	if cfg.SLOTarget != 0 {
		sc := obs.SLOConfig{Target: cfg.SLOTarget, Window: cfg.SLOWindow, Rules: cfg.BurnRules}
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("-slo-target/-slo-window/-burn-windows: %w", err)
		}
		slo = obs.NewSLOTracker(sc).InstrumentDefault()
		slo.Journal = obs.DefaultJournal
		slo.Tenant = *tenant
	}

	// Bind the observability listener before the (potentially long)
	// training phase: an occupied or invalid -listen address fails fast
	// instead of surfacing minutes later — a daemon that silently runs
	// without its observability surface is worse than one that refuses
	// to start — and operators can probe /status while training runs.
	registry := ops.NewRegistry(cfg.Strategy, cfg.Theta)
	registry.Update(func(s *ops.Status) { s.Tenant = *tenant })
	var httpSrv *http.Server
	if f.Listen != "" {
		ln, err := net.Listen("tcp", f.Listen)
		if err != nil {
			return fmt.Errorf("cannot serve observability endpoint on %s: %v", f.Listen, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/healthz", health.LiveHandler())
		mux.Handle("/readyz", health.ReadyHandler())
		if slo != nil {
			mux.Handle("/slo", slo.Handler())
			mux.Handle("/alerts", slo.AlertsHandler())
		}
		mux.Handle("/status", registry.Handler())
		mux.Handle("/metrics", registry.MetricsHandler())
		mux.Handle("/journal", obs.DefaultJournal.Handler())
		mux.Handle("/trace", obs.DefaultTracer.Handler())
		mux.Handle("/decisions", obs.DefaultDecisions.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		httpSrv = &http.Server{Handler: mux}
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(shutCtx); err != nil {
				logf("autoscaled: draining observability endpoint: %v", err)
			}
		}()
		go func() {
			logf("autoscaled: observability endpoint on http://%s (/healthz /readyz /slo /alerts /status /metrics /journal /trace /decisions /debug/pprof)", ln.Addr())
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logf("autoscaled: observability endpoint: %v", err)
			}
		}()
	}

	tr, err := generate(cfg.Seed)
	if err != nil {
		return err
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		return err
	}

	stepsPerDay := int(24 * time.Hour / cpu.Step)
	replaySteps := *days * stepsPerDay
	if replaySteps >= cpu.Len()/2 {
		replaySteps = cpu.Len() / 2
	}
	trainEnd := cpu.Len() - replaySteps
	planHorizon := cfg.Horizon
	if reactive {
		planHorizon = 1
	}
	if err := fleet.CheckSizes(planHorizon, replaySteps, cfg.Theta); err != nil {
		return err
	}

	// The chaos schedule (when enabled) spans the replay in relative
	// steps; the tenant keeps the forecaster wrapper and the apply wrapper
	// on one cursor so injected faults stay aligned with virtual time.
	var sched *chaos.Schedule
	if cfg.Chaos != "" {
		prof.Seed = cfg.ChaosSeed
		if prof.Seed == 0 {
			prof.Seed = cfg.Seed
		}
		prof.Steps = replaySteps
		if sched, err = prof.Build(); err != nil {
			return err
		}
		logf("autoscaled: chaos preset %q armed over %d steps (seed %d)", cfg.Chaos, replaySteps, prof.Seed)
	}

	// The daemon is a fleet of one tenant: fleet.Tenant owns the round —
	// recover, plan, hold, wake-shape, apply, grade, calibrate, checkpoint
	// — and the daemon supplies the parts its flags describe, the
	// warm-up-aware cluster as the plant, and its side effects as hooks.
	fpDataset := *dataset
	if cfg.Serverless {
		// Park/wake state cannot resume into (or from) a non-serverless
		// loop; a distinct dataset tag makes such checkpoints cold-start.
		fpDataset += "+serverless"
	}
	plant := &cluster.ClusterPlant{Config: cluster.DefaultConfig(), Theta: cfg.Theta, StepLen: cpu.Step}
	t := &fleet.Tenant{
		ID: *tenant, Archetype: *dataset, Seed: cfg.Seed,
		Series: cpu, TrainEnd: trainEnd, Horizon: planHorizon,
		Fingerprint: persist.Fingerprint{
			Tenant: *tenant, Strategy: cfg.Strategy, Dataset: fpDataset, Seed: cfg.Seed,
			Theta: cfg.Theta, Horizon: cfg.Horizon, Tau: cfg.Tau, Tau2: cfg.Tau2,
		},
		ForecasterKind: "tft",
		Backoff:        scaler.BackoffConfig{MaxAttempts: *applyRetries, Base: *applyBackoff},
		Breaker:        &scaler.Breaker{Threshold: *breakerOpenAt, Cooldown: int((*breakerCooldown + cpu.Step - 1) / cpu.Step)},
		Sched:          sched,
		Plant:          plant,
		StateDir:       cfg.StateDir, Retain: cfg.Retain,
	}
	if cfg.Guard {
		t.GuardConfig = &scaler.GuardConfig{Theta: cfg.Theta, Tau: cfg.Tau}
	}
	if cfg.Serverless {
		// The wake guard shapes every plan through the park/wake
		// hysteresis. The physical cluster keeps its one-node minimum while
		// parked — the zero lives in the plan and the status surface, which
		// is exactly what a pooled serverless backend would see from this
		// control loop.
		t.WakeConfig = &scaler.WakeGuardConfig{MinIdleRounds: *parkAfter, WakeDebounceRounds: *wakeDebounce}
		if t.IdleEps = *idleEps; t.IdleEps <= 0 {
			t.IdleEps = fleet.IdleEps(cfg.Theta)
		}
		eff := t.WakeConfig.WithDefaults()
		logf("autoscaled: serverless mode: park after %d idle rounds below %.2f, wake debounce %d rounds",
			eff.MinIdleRounds, t.IdleEps, eff.WakeDebounceRounds)
	}
	var strat scaler.Strategy
	t.Build = func(model []byte, savedRho float64) (_ scaler.Strategy, snapper forecast.Snapshotter, rhoUsed float64, err error) {
		if cfg.Rho > 0 {
			savedRho = cfg.Rho
		}
		strat, snapper, rhoUsed, err = buildStrategy(cfg.Strategy, cpu.Slice(0, trainEnd), model, cfg.Tau, cfg.Tau2, savedRho, cfg.Theta, cfg.Horizon, *epochs, t.Faulty, logf)
		return strat, snapper, rhoUsed, err
	}

	// The daemon's own state rides the tenant's checkpoints: the journal
	// and decision rings and the SLO budget.
	t.Sections = func(st *persist.State) {
		st.Journal = persist.Blob(obs.DefaultJournal.Save)
		st.Decisions = persist.Blob(obs.DefaultDecisions.Save)
		if slo != nil {
			st.SLO = persist.Blob(slo.Save)
		}
	}

	// Per-step side effects: the action log, the journal, the SLO tick
	// and the status surface. Every figure is stamped with virtual time,
	// so burn-rate firing rounds are a pure function of the replay.
	var statusPlan []int
	absErrSum := 0.0
	t.OnStep = func(st fleet.Step) {
		at := cpu.TimeAt(st.Index)
		stamp := at.Format("Jan 02 15:04")
		c := plant.Cluster
		if st.Killed > 0 {
			logf("%s FAULT: killed %d node(s), fleet now %d", stamp, st.Killed, st.Prev-st.Killed)
			obs.DefaultJournal.RecordTenantAt(at, *tenant, "fault",
				fmt.Sprintf("failure event killed %d node(s)", st.Killed),
				map[string]float64{"killed": float64(st.Killed), "nodes": float64(st.Prev - st.Killed)})
		}
		if st.Err != nil {
			// Retries and the breaker already did their part; the fleet
			// holds and tries again next step.
			logf("%s HOLD: apply to %d nodes failed (%v), keeping %d", stamp, st.Target, st.Err, st.Nodes)
		}
		if st.Nodes != st.Prev {
			logf("%s scale %d -> %d nodes (workload %.0f)", stamp, st.Prev, st.Nodes, st.Workload)
			obs.DefaultJournal.RecordTenantAt(at, *tenant, "scale",
				fmt.Sprintf("scale %d -> %d nodes", st.Prev, st.Nodes),
				map[string]float64{"from": float64(st.Prev), "to": float64(st.Nodes), "workload": st.Workload})
		}
		bad := uint64(0)
		if st.Violated {
			bad = 1
			logf("%s VIOLATION: utilization %.1f > %.0f with %d nodes", stamp, st.Utilization, cfg.Theta, st.Nodes)
			obs.DefaultJournal.RecordTenantAt(at, *tenant, "violation",
				fmt.Sprintf("utilization %.1f > %.0f with %d nodes", st.Utilization, cfg.Theta, st.Nodes),
				map[string]float64{"utilization": st.Utilization, "theta": cfg.Theta, "nodes": float64(st.Nodes)})
		}
		if slo != nil {
			slo.ObserveAt(at, bad, 1)
		}
		if st.I == 0 {
			// The status registry publishes tails of the plan for the whole
			// round while the tenant rewrites its buffer next round, so it
			// gets its own copy.
			statusPlan = append([]int(nil), st.Plan...)
		}
		if fan := t.Fan(); fan != nil && st.I < fan.Horizon() {
			absErrSum += math.Abs(st.Workload - fan.At(st.I, 0.5))
		}
		tot := t.Totals()
		registry.Update(func(s *ops.Status) {
			s.VirtualTime = c.Now()
			s.Nodes = st.Nodes
			s.Workload = st.Workload
			s.Utilization = st.Utilization / cfg.Theta
			s.Steps = tot.Steps
			s.Violations = tot.Violations
			s.ScaleOuts = c.ScaleOuts
			s.ScaleIns = c.ScaleIns
			s.Plan = statusPlan[st.I+1:]
			s.ApplyHolds = tot.Holds
			if g := t.Guard(); g != nil {
				s.DegradationMode = g.Mode().String()
				s.DegradationReason = g.LastReason()
				s.DegradedRounds = g.DegradedRounds()
			}
			if wg := t.WakeGuard(); wg != nil {
				s.Parked = wg.Parked()
				s.KeepWarm = wg.BreakerOpen()
				s.Parks = int(wg.Parks())
				s.Wakes = int(wg.Wakes())
				s.ParkedSteps = int(tot.ParkedSteps)
			}
		})
	}

	// Start recovers the newest valid checkpoint before building the
	// strategy, so a warm start restores trained weights instead of
	// retraining; the daemon's own sections come back from the snapshot
	// it returns. Any single component failing to load degrades to fresh
	// state for that component rather than aborting the recovery.
	recovered, err := t.Start()
	if err != nil {
		return err
	}
	rejected, coldReason := t.Recovery()
	for _, p := range rejected {
		logf("autoscaled: rejected corrupt or unreadable checkpoint %s", p)
	}
	if coldReason != "" {
		logf("autoscaled: %s; cold start", coldReason)
	}
	tot := t.Totals()
	if recovered != nil {
		logf("autoscaled: warm start: resuming at replay step %d/%d with restored state (%d nodes, %d steps already replayed, no retraining)",
			t.Origin()-trainEnd, replaySteps, tot.Nodes, tot.Steps)
		restore := func(name string, blob []byte, load func(io.Reader) error) {
			if len(blob) == 0 {
				return
			}
			if err := load(bytes.NewReader(blob)); err != nil {
				logf("autoscaled: restoring %s state: %v (continuing fresh)", name, err)
			}
		}
		restore("journal", recovered.Journal, obs.DefaultJournal.Load)
		restore("decisions", recovered.Decisions, obs.DefaultDecisions.Load)
		if slo != nil {
			restore("slo", recovered.SLO, slo.Load)
		}
	}
	logf("autoscaled: strategy=%s theta=%.0f horizon=%d replaying %d steps of %s",
		strat.Name(), cfg.Theta, planHorizon, replaySteps, cpu.Name)
	registry.Update(func(s *ops.Status) {
		// The built strategy may carry a more specific name than the flag
		// (e.g. "tft-0.9" for "robust").
		s.Strategy, s.WarmStart = strat.Name(), recovered != nil
		s.VirtualTime, s.Nodes = t.Now(), tot.Nodes
		s.Steps, s.Violations, s.ApplyHolds = tot.Steps, tot.Violations, tot.Holds
	})

	// The daemon is a fleet of one, so its calibration gauges are the fold
	// of its one window: published once for a warm start's restored window,
	// then after every round.
	var calFold cluster.CalibrationFold
	foldCalibration := func() {
		calFold.Add(t.Calibration())
		calFold.Publish()
	}
	foldCalibration()

	// checkpoint runs at round boundaries only; a failed write logs and
	// keeps flying.
	lastCkpt := -1
	checkpoint := func() {
		if err := t.Checkpoint(); err != nil {
			logf("autoscaled: %v", err)
			return
		}
		lastCkpt = t.Origin()
		registry.Update(func(s *ops.Status) { s.CheckpointWrites = int(persist.CheckpointWrites()) })
	}

	// Training (or warm-start restore) is done and the replay is about to
	// consume steps: the daemon is ready. /readyz flips 503 -> 200 here.
	health.SetReady(true)

	for rounds := 1; t.Active(); rounds++ {
		origin := t.Origin()
		if ctx.Err() != nil {
			logf("autoscaled: shutdown requested; stopping at round boundary (replay step %d)", origin-trainEnd)
			break
		}
		sp := obs.DefaultTracer.Start("plan-round")
		perr := t.Plan()
		sp.EndVirtual(t.Now())
		if t.Err() != nil {
			return t.Err()
		}
		if perr != nil {
			// Even an exhausted fallback ladder must not crash the daemon:
			// the tenant holds the current fleet for the round.
			logf("%s HOLD: planning failed (%v), keeping %d nodes for %d steps",
				cpu.TimeAt(origin).Format("Jan 02 15:04"), perr, t.Totals().Nodes, planHorizon)
		}
		absErrSum = 0
		applyStart := time.Now()
		sp = obs.DefaultTracer.Start("apply")
		if err := t.Apply(); err != nil {
			return err
		}
		c := plant.Cluster
		sp.EndVirtual(c.Now())
		ops.ObserveApply(time.Since(applyStart))
		foldCalibration()
		if t.Fan() != nil {
			obs.DefaultJournal.RecordTenantAt(c.Now(), *tenant, "forecast_error",
				fmt.Sprintf("plan round at %s: mean |actual - median forecast| = %.1f",
					cpu.TimeAt(origin).Format("Jan 02 15:04"), absErrSum/float64(planHorizon)),
				map[string]float64{"mean_abs_error": absErrSum / float64(planHorizon)})
		}
		if (origin-trainEnd)%stepsPerDay < planHorizon { // daily-ish progress
			tot := t.Totals()
			logf("%s summary: %d/%d steps, %d violations (%.2f%%), %d scale-outs, %d scale-ins",
				cpu.TimeAt(origin).Format("Jan 02"), tot.Steps, replaySteps,
				tot.Violations, 100*float64(tot.Violations)/float64(tot.Steps), c.ScaleOuts, c.ScaleIns)
		}
		if cfg.StateDir != "" && rounds%cfg.CheckpointInterval == 0 {
			checkpoint()
		}
		if *roundDelay > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(*roundDelay):
			}
		}
	}
	// Final checkpoint: on shutdown between checkpoints (or with a sparse
	// cadence) this bounds lost progress to zero rounds.
	if cfg.StateDir != "" && t.Origin() != lastCkpt {
		checkpoint()
		logf("autoscaled: final checkpoint written (replay step %d)", t.Origin()-trainEnd)
	}
	tot, c := t.Totals(), plant.Cluster
	fmt.Fprintf(stdout, "\nfinal: %d steps, %d violations (%.2f%%), %d scale-outs, %d scale-ins\n",
		tot.Steps, tot.Violations, 100*float64(tot.Violations)/float64(tot.Steps), c.ScaleOuts, c.ScaleIns)
	if g := t.Guard(); g != nil {
		fmt.Fprintf(stdout, "resilience: %d degraded rounds, %d apply holds, %d node failures, final mode %s\n",
			g.DegradedRounds(), tot.Holds, c.Failures, g.Mode())
	}
	if wg := t.WakeGuard(); wg != nil {
		fmt.Fprintf(stdout, "serverless: %d parks, %d wakes, %d blocked parks, %d parked steps, parked now %v\n",
			wg.Parks(), wg.Wakes(), wg.BlockedParks(), tot.ParkedSteps, wg.Parked())
	}
	if slo != nil {
		// Every figure here is a pure function of the replay in virtual
		// time, so identical runs print an identical line — the slo-smoke
		// CI job diffs it across reruns.
		st := slo.Status()
		firstFire := "none"
		if tick, ok := slo.FirstFiring(); ok {
			firstFire = strconv.FormatUint(tick, 10)
		}
		fmt.Fprintf(stdout, "slo: target %g window %d: %d/%d bad steps, budget remaining %.4f, %d transitions, %d active alerts, first firing tick %s\n",
			st.Target, st.Window, st.Bad, st.Total, st.BudgetRemaining, st.Transitions, st.ActiveAlerts, firstFire)
	}
	if cal := t.Calibration(); cal != nil {
		snap := cal.Snapshot()
		fmt.Fprintf(stdout, "calibration over last %d steps: rolling wQL %.4f; coverage", snap.Steps, snap.WQL)
		for i, tau := range snap.Levels {
			fmt.Fprintf(stdout, " %g:%.2f", tau, snap.Coverage[i])
		}
		fmt.Fprintln(stdout)
	}
	if *traceOut != "" {
		if err := obs.DefaultTracer.WriteChromeFile(*traceOut); err != nil {
			return fmt.Errorf("writing trace: %v", err)
		}
		logf("autoscaled: wrote %d spans (%d dropped) to %s",
			obs.DefaultTracer.Len(), obs.DefaultTracer.Dropped(), *traceOut)
	}
	if *explain != "" {
		if err := printExplanation(stdout, *explain); err != nil {
			return err
		}
	}
	if f.Listen != "" && ctx.Err() == nil {
		// A daemon asked to expose its observability surface keeps
		// serving it after the replay — postmortem tooling can query
		// /decisions, /trace and /journal at leisure; ^C or SIGTERM
		// ends it gracefully.
		logf("autoscaled: replay complete; serving observability surface until interrupted")
		<-ctx.Done()
	}
	return nil
}

// printExplanation resolves the -explain argument — a series step index
// or "latest" — against the recorded decisions and prints the audit
// line.
func printExplanation(stdout io.Writer, arg string) error {
	var d obs.Decision
	var ok bool
	step := 0
	if arg == "latest" {
		if d, ok = obs.DefaultDecisions.Latest(); !ok {
			return fmt.Errorf("no decisions recorded")
		}
		step = d.Step
	} else {
		var err error
		if step, err = strconv.Atoi(arg); err != nil {
			return fmt.Errorf(`-explain wants a step index or "latest": %v`, err)
		}
		if d, ok = obs.DefaultDecisions.At(step); !ok {
			return fmt.Errorf("no decision recorded for step %d", step)
		}
	}
	fmt.Fprintln(stdout, d.Explain(step))
	return nil
}

// strategies maps every -strategy name buildStrategy builds to whether it
// is a model-free reactive baseline, which plans one step ahead.
var strategies = map[string]bool{"reactive-max": true, "reactive-avg": true, "robust": false, "adaptive": false}

// datasets maps every -dataset name to its trace generator.
var datasets = map[string]func(seed int64) (*robustscale.Trace, error){
	"alibaba": robustscale.GenerateAlibabaTrace,
	"google":  robustscale.GenerateGoogleTrace,
}

// buildStrategy trains (cold start) or restores (model != nil, warm
// start — zero training epochs) the forecaster and assembles the
// requested bare strategy, one of strategies. It returns the
// forecaster's snapshotter for checkpointing (nil for the model-free
// reactive strategies) and the uncertainty threshold in effect (rho <= 0
// calibrates it). wrap is applied to the forecaster before it is handed
// to a strategy — the chaos injector hooks in there — but never to the
// calibration pass, which must see the genuine model.
func buildStrategy(name string, train *robustscale.Series, model []byte, tau, tau2, rho, theta float64, horizon, epochs int, wrap func(forecast.QuantileForecaster) forecast.QuantileForecaster, logf func(string, ...interface{})) (scaler.Strategy, forecast.Snapshotter, float64, error) {
	switch name {
	case "reactive-max":
		return &robustscale.ReactiveMax{Window: 6, Theta: theta}, nil, 0, nil
	case "reactive-avg":
		return &robustscale.ReactiveAvg{Window: 6, HalfLife: 6, Theta: theta}, nil, 0, nil
	}
	// robust or adaptive
	cfg := robustscale.DefaultTFTConfig()
	cfg.Epochs = epochs
	cfg.Hidden = 24
	cfg.MaxWindows = 128
	cfg.TrainHorizon = horizon
	cfg.Levels = robustscale.ScalingLevels
	tft := robustscale.NewTFT(cfg)
	if model != nil {
		if err := tft.Load(bytes.NewReader(model)); err != nil {
			return nil, nil, 0, fmt.Errorf("restoring %s from checkpoint: %w", tft.Name(), err)
		}
	} else {
		logf("autoscaled: training %s on %d steps...", tft.Name(), train.Len())
		if err := tft.Fit(train); err != nil {
			return nil, nil, 0, err
		}
	}
	if name == "robust" {
		return &robustscale.Robust{Forecaster: wrap(tft), Tau: tau, Theta: theta}, tft, 0, nil
	}
	if rho <= 0 {
		var err error
		if rho, err = scaler.CalibrateRho(tft, train, horizon); err != nil {
			return nil, nil, 0, err
		}
		logf("autoscaled: calibrated rho = %.2f", rho)
	}
	return &robustscale.Adaptive{Forecaster: wrap(tft), Tau1: tau, Tau2: tau2, Rho: rho, Theta: theta}, tft, rho, nil
}
