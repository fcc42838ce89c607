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
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
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
// status: 0 on success (and -h), 2 for unparsable flags, 1 otherwise.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2 // the FlagSet already printed the problem and the usage
	}
	fmt.Fprintf(stderr, "autoscaled: %v\n", err)
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
	logger := log.New(stderr, "", 0)
	fs := flag.NewFlagSet("autoscaled", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset    = fs.String("dataset", "alibaba", "workload: alibaba or google")
		tenant     = fs.String("tenant", obs.DefaultTenant, "tenant id labelling this daemon's decisions, journal events, metrics and checkpoints")
		seed       = fs.Int64("seed", 42, "trace seed")
		days       = fs.Int("days", 7, "how many days of workload to replay")
		strategy   = fs.String("strategy", "robust", "robust | adaptive | reactive-max | reactive-avg")
		tau        = fs.Float64("tau", 0.9, "quantile level (robust) or optimistic level (adaptive)")
		tau2       = fs.Float64("tau2", 0.95, "conservative level for adaptive")
		rho        = fs.Float64("rho", 0, "uncertainty threshold for adaptive (0 = auto-calibrate)")
		theta      = fs.Float64("theta", 100, "per-node workload threshold")
		horizon    = fs.Int("horizon", 72, "planning horizon in steps")
		epochs     = fs.Int("epochs", 6, "forecaster training epochs")
		listen     = fs.String("listen", "", "address for the JSON status endpoint (e.g. :8080; empty disables)")
		journalCap = fs.Int("journal-cap", 1024, "bounded event journal capacity (entries)")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event JSON file here when the replay ends (implies tracing)")
		explain    = fs.String("explain", "", `print the decision explanation for a series step index, or "latest", after the replay`)

		sloTarget  = fs.Float64("slo-target", 0.01, "violation-rate SLO driving the error-budget tracker and burn-rate alerts (0 disables the SLO plane)")
		sloWindow  = fs.Int("slo-window", 144, "rolling error-budget window in replay steps")
		burnSpec   = fs.String("burn-windows", "", `burn-rate alert rules as "[name=]<factor>x:<long>/<short>,..." (empty = defaults scaled to -slo-window)`)
		labelLimit = fs.Int("label-limit", obs.DefaultLabelLimit, `per-metric label cardinality cap; excess label values collapse into the "other" series (<= 0 = unlimited)`)

		guardOn     = fs.Bool("guard", true, "wrap the strategy in the resilience guard (fan repair, fallback ladder)")
		guardBlowup = fs.Float64("guard-blowup", 8, "sanity bound: clamp forecasts above this multiple of the recent history maximum")
		guardSlack  = fs.Float64("guard-coverage-slack", 0.25, "calibration health: tolerated shortfall of rolling coverage below each nominal level")
		guardMaxWQL = fs.Float64("guard-max-wql", 0, "calibration health: rolling wQL above this marks the forecaster unhealthy (0 disables)")
		shrinkMC    = fs.Bool("shrink-samples", false, "let a demonstrably conservative calibration window shrink Monte-Carlo sample budgets (trades bit-identical planning for latency)")

		applyRetries    = fs.Int("apply-retries", 3, "scale-apply attempts per round (first included)")
		applyBackoff    = fs.Duration("apply-backoff", time.Second, "base backoff between apply retries (doubles per retry)")
		breakerOpenAt   = fs.Int("breaker-threshold", 3, "consecutive failed apply rounds that open the circuit breaker")
		breakerCooldown = fs.Duration("breaker-cooldown", 30*time.Minute, "virtual time the breaker stays open before probing")

		chaosProf = fs.String("chaos", "", "inject deterministic faults from this preset during the replay (forecast|telemetry|apply|node-kill|all|smoke)")
		chaosSeed = fs.Int64("chaos-seed", 0, "chaos schedule seed (0 = use -seed)")

		serverless    = fs.Bool("serverless", false, "serverless mode: the wake guard parks an idle tenant's plan to zero (the physical cluster holds a one-node floor) and wakes it when demand returns")
		idleEps       = fs.Float64("idle-eps", 0, "workload level below which the tenant counts as idle (0 = theta/10)")
		parkAfter     = fs.Int("park-after", 0, "consecutive idle rounds before parking (0 = default 3)")
		wakeDebounce  = fs.Int("wake-debounce", 0, "rounds after a wake during which parking is refused (0 = default 2)")
		keepWarmAfter = fs.Int("keep-warm-after", 0, "consecutive wake failures tripping the wake breaker into keep-warm (0 = default 3)")

		stateDir     = fs.String("state-dir", "", "checkpoint directory for durable warm restarts (empty disables durability)")
		stateRetain  = fs.Int("state-retain", persist.DefaultRetain, "checkpoint snapshots to retain in -state-dir")
		ckptInterval = fs.Int("checkpoint-interval", 1, "write a checkpoint every N planning rounds (with -state-dir)")
		roundDelay   = fs.Duration("round-delay", 0, "wall-clock pause after each planning round (paces the replay for live observation and kill/restart drills)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errFlags, err)
	}

	if err := persist.ValidTenantID(*tenant); err != nil {
		return err
	}

	// Every run starts from fresh process-wide observability rings, so
	// several runs in one process (the in-process tests) do not see each
	// other's events. The journal is sized before anything records into
	// it; the tracer is enabled only when someone can observe it
	// (-trace-out or -listen), so a bare replay pays the disabled-tracer
	// cost of ~one atomic load per span site.
	obs.DefaultJournal = obs.NewJournal(*journalCap)
	obs.DefaultDecisions.Reset()
	obs.DefaultTracer.Reset()
	obs.DefaultTracer.SetEnabled(*traceOut != "" || *listen != "")
	// Decision records are the daemon's reason to exist (-explain,
	// /decisions), so capture is always on here; library consumers stay
	// at the disabled default.
	obs.DefaultDecisions.SetEnabled(true)
	obs.Default.SetLabelLimit(*labelLimit)

	// The SLO tracker exists before the listener binds so /slo and
	// /alerts answer from the first request; it only starts consuming
	// budget once the replay loop observes steps.
	health := obs.NewHealth()
	var slo *obs.SLOTracker
	if *sloTarget > 0 {
		var rules []obs.BurnRule
		if *burnSpec != "" {
			var perr error
			if rules, perr = obs.ParseBurnRules(*burnSpec); perr != nil {
				return fmt.Errorf("-burn-windows: %v", perr)
			}
			for _, r := range rules {
				if r.Long > *sloWindow {
					return fmt.Errorf("-burn-windows: rule %s long window %d exceeds -slo-window %d", r.Name, r.Long, *sloWindow)
				}
			}
		}
		if !(*sloTarget < 1) || *sloWindow < 1 {
			return fmt.Errorf("need 0 < -slo-target < 1 and -slo-window >= 1, got %v/%d", *sloTarget, *sloWindow)
		}
		slo = obs.NewSLOTracker(obs.SLOConfig{Target: *sloTarget, Window: *sloWindow, Rules: rules}).InstrumentDefault()
		slo.Journal = obs.DefaultJournal
		slo.Tenant = *tenant
	}

	// Bind the observability listener before the (potentially long)
	// training phase: an occupied or invalid -listen address fails fast
	// instead of surfacing minutes later — a daemon that silently runs
	// without its observability surface is worse than one that refuses
	// to start — and operators can probe /status while training runs.
	registry := ops.NewRegistry(*strategy, *theta)
	registry.Update(func(s *ops.Status) { s.Tenant = *tenant })
	var httpSrv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("cannot serve observability endpoint on %s: %v", *listen, err)
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
				logger.Printf("autoscaled: draining observability endpoint: %v", err)
			}
		}()
		go func() {
			logger.Printf("autoscaled: observability endpoint on http://%s (/healthz /readyz /slo /alerts /status /metrics /journal /trace /decisions /debug/pprof)", ln.Addr())
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Printf("autoscaled: observability endpoint: %v", err)
			}
		}()
	}

	var tr *robustscale.Trace
	var err error
	switch *dataset {
	case "alibaba":
		tr, err = robustscale.GenerateAlibabaTrace(*seed)
	case "google":
		tr, err = robustscale.GenerateGoogleTrace(*seed)
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	if err != nil {
		return err
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		return err
	}

	stepsPerDay := int((24 * 60) / 10)
	replaySteps := *days * stepsPerDay
	if replaySteps >= cpu.Len()/2 {
		replaySteps = cpu.Len() / 2
	}
	trainEnd := cpu.Len() - replaySteps

	// The chaos schedule (when enabled) spans the replay in relative
	// steps; one cursor is shared by the forecaster wrapper and the apply
	// wrapper so injected faults stay aligned with virtual time.
	var sched *chaos.Schedule
	cur := &chaos.Cursor{}
	if *chaosProf != "" {
		prof, err := chaos.Preset(*chaosProf)
		if err != nil {
			return err
		}
		prof.Seed = *chaosSeed
		if prof.Seed == 0 {
			prof.Seed = *seed
		}
		prof.Steps = replaySteps
		if sched, err = prof.Build(); err != nil {
			return err
		}
		logger.Printf("autoscaled: chaos preset %q armed over %d steps (seed %d)", *chaosProf, replaySteps, prof.Seed)
	}
	wrap := func(qf forecast.QuantileForecaster) forecast.QuantileForecaster {
		if sched == nil {
			return qf
		}
		return &chaos.Forecaster{Inner: qf, Schedule: sched, Cursor: cur}
	}

	planHorizon := *horizon
	if *strategy == "reactive-max" || *strategy == "reactive-avg" {
		planHorizon = 1
	}

	// Durable control plane: recover the newest valid checkpoint before
	// building the strategy, so a warm start restores trained weights
	// instead of retraining. A checkpoint is resumable only if it came
	// from an identical run configuration and its origin lands on a round
	// boundary of this replay.
	fpDataset := *dataset
	if *serverless {
		// Park/wake state cannot resume into (or from) a non-serverless
		// loop; a distinct dataset tag makes such checkpoints cold-start.
		fpDataset += "+serverless"
	}
	fp := persist.Fingerprint{
		Tenant: *tenant, Strategy: *strategy, Dataset: fpDataset, Seed: *seed,
		Theta: *theta, Horizon: *horizon, Tau: *tau, Tau2: *tau2,
	}
	var mgr *persist.Manager
	var recovered *persist.State
	if *stateDir != "" {
		if mgr, err = persist.NewManager(*stateDir, *stateRetain); err != nil {
			return fmt.Errorf("opening state dir: %v", err)
		}
		st, info, rerr := mgr.Recover()
		for _, p := range info.Rejected {
			logger.Printf("autoscaled: rejected corrupt or unreadable checkpoint %s", p)
		}
		switch {
		case rerr != nil:
			logger.Printf("autoscaled: no usable checkpoint in %s (%v); cold start", *stateDir, rerr)
		case st == nil:
			// Empty state dir: first run, plain cold start.
		case st.Fingerprint != fp:
			logger.Printf("autoscaled: checkpoint %s is from a different run configuration; cold start", info.Path)
		case st.Origin < trainEnd || st.Origin > cpu.Len() || (st.Origin-trainEnd)%planHorizon != 0:
			logger.Printf("autoscaled: checkpoint origin %d incompatible with replay [%d, %d); cold start",
				st.Origin, trainEnd, cpu.Len())
		default:
			recovered = st
			logger.Printf("autoscaled: recovered checkpoint %s (origin %d, %d nodes, %d steps already replayed)",
				info.Path, st.Origin, st.PrevAlloc, st.Steps)
		}
	}

	effRho := *rho
	var model []byte
	if recovered != nil {
		model = recovered.Forecaster
		if effRho <= 0 && recovered.Rho > 0 {
			// Reuse the rho calibrated at the original cold start instead of
			// recalibrating, so warm-started planning is bit-identical.
			effRho = recovered.Rho
		}
	}
	strat, snapper, rhoUsed, err := buildStrategy(*strategy, cpu.Slice(0, trainEnd), model, *tau, *tau2, effRho, *theta, *horizon, *epochs, wrap, logger.Printf)
	if err != nil && model != nil {
		logger.Printf("autoscaled: restoring forecaster from checkpoint failed (%v); cold start", err)
		recovered, model = nil, nil
		strat, snapper, rhoUsed, err = buildStrategy(*strategy, cpu.Slice(0, trainEnd), nil, *tau, *tau2, *rho, *theta, *horizon, *epochs, wrap, logger.Printf)
	}
	if err != nil {
		return err
	}
	warm := recovered != nil
	if warm {
		logger.Printf("autoscaled: warm start: resuming at replay step %d/%d with restored state (no retraining)",
			recovered.Origin-trainEnd, replaySteps)
	}

	startOrigin, initialAlloc := trainEnd, 1
	if recovered != nil {
		startOrigin = recovered.Origin
		if recovered.PrevAlloc > 0 {
			initialAlloc = recovered.PrevAlloc
		}
	}

	c, err := robustscale.NewCluster(robustscale.DefaultClusterConfig(), cpu.TimeAt(startOrigin), initialAlloc)
	if err != nil {
		return err
	}

	// The guard wraps the strategy: fans are repaired, forecaster errors
	// fall back down the ladder, and the calibration health gate (wired
	// lazily, once the first fan establishes the levels) pre-empts a
	// forecaster whose rolling coverage has collapsed.
	var calCheck func() (bool, string)
	planner := robustscale.Strategy(strat)
	var guard *scaler.Guard
	if *guardOn {
		guard = &scaler.Guard{
			Inner:  strat,
			Config: scaler.GuardConfig{Theta: *theta, Tau: *tau, BlowupFactor: *guardBlowup},
			Clock:  c.Now,
			Health: func() (bool, string) {
				if calCheck == nil {
					return true, ""
				}
				return calCheck()
			},
		}
		planner = guard
	}

	// Scale actions go through retry-with-backoff and a circuit breaker;
	// when the (possibly chaos-wrapped) control plane keeps failing, the
	// loop holds the current fleet instead of crashing.
	applyFn := c.ScaleTo
	if sched != nil {
		applyFn = chaos.WrapApply(c.ScaleTo, c.Size, sched, cur)
	}
	applier := &scaler.Applier{
		Apply:   applyFn,
		Backoff: scaler.BackoffConfig{MaxAttempts: *applyRetries, Base: *applyBackoff},
		Breaker: &scaler.Breaker{Threshold: *breakerOpenAt, Cooldown: *breakerCooldown},
		Clock:   c.Now,
	}

	// Serverless mode: the wake guard shapes every plan through the
	// park/wake hysteresis. The physical cluster keeps its one-node
	// minimum while parked — the zero lives in the plan and the status
	// surface, which is exactly what a pooled serverless backend would
	// see from this control loop.
	var wakeGuard *scaler.WakeGuard
	effIdleEps := *idleEps
	if effIdleEps <= 0 {
		effIdleEps = *theta / 10
	}
	parkedSteps := 0
	if *serverless {
		wakeGuard = &scaler.WakeGuard{
			Config: scaler.WakeGuardConfig{
				MinIdleRounds:      *parkAfter,
				WakeDebounceRounds: *wakeDebounce,
				KeepWarmAfterFails: *keepWarmAfter,
			},
			Tenant: *tenant,
			Clock:  c.Now,
		}
		logger.Printf("autoscaled: serverless mode: park after %d idle rounds below %.2f, wake debounce %d rounds",
			*parkAfter, effIdleEps, *wakeDebounce)
	}

	logger.Printf("autoscaled: strategy=%s theta=%.0f horizon=%d replaying %d steps of %s",
		planner.Name(), *theta, planHorizon, replaySteps, cpu.Name)

	// The built strategy may carry a more specific name than the flag
	// (e.g. "tft-0.9" for "robust").
	registry.Update(func(s *ops.Status) { s.Strategy = planner.Name(); s.WarmStart = warm })

	// Quantile strategies retain the fan behind each plan; grade its
	// calibration online over a one-day rolling window.
	var cal *cluster.Calibration
	fanProvider, _ := planner.(scaler.FanProvider)

	// Opt-in latency/fidelity trade: once the calibration window shows
	// every quantile band running conservative, shrink the forecaster's
	// Monte-Carlo sample budget. This deliberately gives up warm/cold
	// bit-identity, so it is off by default.
	armShrinker := func() {
		if !*shrinkMC || cal == nil {
			return
		}
		if sb, ok := snapper.(interface{ SetSampleBudget(func(int) int) }); ok {
			sb.SetSampleBudget(cal.SampleShrinker(*guardSlack, stepsPerDay/4, 0.25))
			logger.Printf("autoscaled: calibration-gated Monte-Carlo sample shrinking armed")
		}
	}

	// A warm start restores the rest of the control-plane state. Any
	// single component failing to load degrades to fresh state for that
	// component rather than aborting the recovery.
	if recovered != nil {
		restore := func(name string, blob []byte, load func(io.Reader) error) {
			if len(blob) == 0 {
				return
			}
			if err := load(bytes.NewReader(blob)); err != nil {
				logger.Printf("autoscaled: restoring %s state: %v (continuing fresh)", name, err)
			}
		}
		if guard != nil {
			restore("guard", recovered.Guard, guard.Load)
		}
		restore("breaker", recovered.Breaker, applier.Breaker.Load)
		restore("journal", recovered.Journal, obs.DefaultJournal.Load)
		restore("decisions", recovered.Decisions, obs.DefaultDecisions.Load)
		if slo != nil {
			restore("slo", recovered.SLO, slo.Load)
		}
		if wakeGuard != nil && len(recovered.Extra) > 0 {
			var ex daemonExtra
			if derr := gob.NewDecoder(bytes.NewReader(recovered.Extra)).Decode(&ex); derr != nil {
				logger.Printf("autoscaled: restoring wake state: %v (continuing fresh)", derr)
			} else {
				parkedSteps = ex.ParkedSteps
				restore("wake guard", ex.Wake, wakeGuard.Load)
			}
		}
		if len(recovered.Calibration) > 0 {
			if loaded, cerr := cluster.LoadCalibration(bytes.NewReader(recovered.Calibration)); cerr != nil {
				logger.Printf("autoscaled: restoring calibration state: %v (continuing fresh)", cerr)
			} else {
				cal = loaded
				calCheck = cal.HealthCheck(*guardSlack, *guardMaxWQL, stepsPerDay/4)
				armShrinker()
			}
		}
	}

	violations, steps, holds := 0, 0, 0
	prevAlloc := initialAlloc
	if recovered != nil {
		violations, steps, holds = recovered.Violations, recovered.Steps, recovered.Holds
		registry.Update(func(s *ops.Status) {
			s.VirtualTime = c.Now()
			s.Nodes = prevAlloc
			s.Steps = steps
			s.Violations = violations
			s.ApplyHolds = holds
		})
	}

	// writeCheckpoint snapshots the full control plane as of the given
	// next planning origin. It runs at round boundaries only — never
	// inside the per-step hot path — and a failed write logs and keeps
	// flying: durability must not take down the control loop it protects.
	lastCkpt := -1
	writeCheckpoint := func(nextOrigin int) {
		if mgr == nil {
			return
		}
		blob := func(name string, save func(io.Writer) error) []byte {
			var b bytes.Buffer
			if err := save(&b); err != nil {
				logger.Printf("autoscaled: checkpoint: snapshotting %s failed: %v", name, err)
				return nil
			}
			return b.Bytes()
		}
		st := &persist.State{
			SavedAt:     c.Now(),
			Fingerprint: fp,
			Origin:      nextOrigin,
			PrevAlloc:   prevAlloc,
			Steps:       steps,
			Violations:  violations,
			Holds:       holds,
			Rho:         rhoUsed,
		}
		if snapper != nil {
			st.ForecasterKind = "tft"
			if st.Forecaster = blob("forecaster", snapper.Save); st.Forecaster == nil {
				return // a snapshot without the model would warm-start wrong
			}
		}
		if cal != nil {
			st.Calibration = blob("calibration", cal.Save)
		}
		if guard != nil {
			st.Guard = blob("guard", guard.Save)
		}
		st.Breaker = blob("breaker", applier.Breaker.Save)
		if wakeGuard != nil {
			ex := daemonExtra{Wake: blob("wake guard", wakeGuard.Save), ParkedSteps: parkedSteps}
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(ex); err != nil {
				logger.Printf("autoscaled: checkpoint: snapshotting wake state failed: %v", err)
			} else {
				st.Extra = b.Bytes()
			}
		}
		st.Journal = blob("journal", obs.DefaultJournal.Save)
		st.Decisions = blob("decisions", obs.DefaultDecisions.Save)
		if slo != nil {
			st.SLO = blob("slo", slo.Save)
		}
		if _, err := mgr.Write(st); err != nil {
			logger.Printf("autoscaled: checkpoint at origin %d failed: %v", nextOrigin, err)
			return
		}
		lastCkpt = nextOrigin
		registry.Update(func(s *ops.Status) { s.CheckpointWrites = int(persist.CheckpointWrites()) })
	}

	// Training (or warm-start restore) is done and the replay is about to
	// consume steps: the daemon is ready. /readyz flips 503 -> 200 here.
	health.SetReady(true)

	// One reusable history view and plan buffer keep the steady-state
	// round allocation-free for in-place strategies: the view shares the
	// trace's backing array, so warm forecasters see a continuous history
	// and advance their cached state instead of reconditioning.
	histView := &robustscale.Series{Name: cpu.Name, Start: cpu.Start, Step: cpu.Step}
	var planBuf []int
	nextOrigin, rounds := startOrigin, 0
	for origin := startOrigin; origin+planHorizon <= cpu.Len(); origin += planHorizon {
		if ctx.Err() != nil {
			logger.Printf("autoscaled: shutdown requested; stopping at round boundary (replay step %d)", origin-trainEnd)
			break
		}
		cur.Set(origin - trainEnd)
		histView.Values = cpu.Values[:origin]
		hist := histView
		if sched != nil {
			// Corruption clones the series; warm forecasters notice the
			// broken backing-array identity and recondition from scratch,
			// bit-identically.
			hist = chaos.CorruptTelemetry(hist, sched, origin-trainEnd)
		}
		sp := obs.DefaultTracer.Start("plan-round")
		plan, err := scaler.PlanRound(planner, hist, planHorizon, planBuf)
		sp.EndVirtual(c.Now())
		if plan != nil {
			planBuf = plan
		}
		if err != nil {
			// Even an exhausted fallback ladder must not crash the daemon:
			// hold the current fleet for the round and keep flying.
			if guard == nil {
				return err
			}
			logger.Printf("%s HOLD: planning failed (%v), keeping %d nodes for %d steps",
				cpu.TimeAt(origin).Format("Jan 02 15:04"), err, prevAlloc, planHorizon)
			plan = make([]int, planHorizon)
			for i := range plan {
				plan[i] = prevAlloc
			}
		}
		if wakeGuard != nil {
			// Idleness is judged on the genuine trace (not the chaos-
			// corrupted view) plus the plan: a telemetry fault must not park
			// a loaded tenant.
			idle := true
			for _, v := range plan {
				if v > 1 {
					idle = false
					break
				}
			}
			for i := origin - planHorizon; idle && i < origin; i++ {
				if i >= 0 && cpu.At(i) > effIdleEps {
					idle = false
				}
			}
			tr := wakeGuard.Shape(plan, idle)
			scaler.RecordDecisionAdmitted(planner, *tenant, origin, c.Now(), prevAlloc, plan, 0, wakeReasonOf(tr))
		} else {
			scaler.RecordDecisionFor(planner, *tenant, origin, c.Now(), prevAlloc, plan)
		}
		// The status registry publishes tails of the plan for the whole
		// round while the fast path rewrites its buffer next round, so it
		// gets its own copy.
		statusPlan := append([]int(nil), plan...)
		var fan *robustscale.QuantileForecast
		if fanProvider != nil {
			fan = fanProvider.LastFan()
		}
		if fan != nil && cal == nil {
			if cal, err = cluster.NewCalibration(fan.Levels, stepsPerDay); err != nil {
				return err
			}
			calCheck = cal.HealthCheck(*guardSlack, *guardMaxWQL, stepsPerDay/4)
			armShrinker()
		}
		absErrSum := 0.0
		for i, alloc := range plan {
			t := origin + i
			cur.Set(t - trainEnd)
			if sched != nil {
				if kills := sched.KillsAt(t - trainEnd); kills > 0 {
					chaos.CountInjected(chaos.NodeKill)
					c.Kill(kills)
					logger.Printf("%s FAULT: killed %d node(s), fleet now %d",
						cpu.TimeAt(t).Format("Jan 02 15:04"), kills, c.Size())
					obs.DefaultJournal.RecordTenantAt(c.Now(), *tenant, "fault",
						fmt.Sprintf("failure event killed %d node(s)", kills),
						map[string]float64{"killed": float64(kills), "nodes": float64(c.Size())})
				}
			}
			if wakeGuard != nil && alloc <= 0 {
				// Parked: the plan is zero but the simulated cluster enforces
				// a one-node physical floor, so hold it there and account the
				// step as parked instead of applying a zero.
				parkedSteps++
				alloc = 1
			}
			applyStart := time.Now()
			applySpan := obs.DefaultTracer.Start("apply")
			if err := applier.ScaleTo(alloc); err != nil {
				// Retries and the breaker already did their part; hold the
				// current fleet and try again next step.
				holds++
				logger.Printf("%s HOLD: apply to %d nodes failed (%v), keeping %d",
					cpu.TimeAt(t).Format("Jan 02 15:04"), alloc, err, c.Size())
			}
			actual := c.Size()
			if actual != prevAlloc {
				logger.Printf("%s scale %d -> %d nodes (workload %.0f)",
					cpu.TimeAt(t).Format("Jan 02 15:04"), prevAlloc, actual, cpu.At(t))
				obs.DefaultJournal.RecordTenantAt(c.Now(), *tenant, "scale",
					fmt.Sprintf("scale %d -> %d nodes", prevAlloc, actual),
					map[string]float64{"from": float64(prevAlloc), "to": float64(actual), "workload": cpu.At(t)})
				prevAlloc = actual
			}
			capacity := c.EffectiveCapacity(cpu.Step)
			util := cpu.At(t) / capacity
			bad := uint64(0)
			if util > *theta {
				violations++
				bad = 1
				logger.Printf("%s VIOLATION: utilization %.1f > %.0f with %d nodes",
					cpu.TimeAt(t).Format("Jan 02 15:04"), util, *theta, actual)
				obs.DefaultJournal.RecordTenantAt(c.Now(), *tenant, "violation",
					fmt.Sprintf("utilization %.1f > %.0f with %d nodes", util, *theta, actual),
					map[string]float64{"utilization": util, "theta": *theta, "nodes": float64(actual)})
			}
			if slo != nil {
				// One tick per replayed step, stamped with virtual time, so
				// burn-rate firing rounds are a pure function of the replay.
				slo.ObserveAt(c.Now(), bad, 1)
			}
			steps++
			c.Advance(cpu.Step)
			registry.Update(func(s *ops.Status) {
				s.VirtualTime = c.Now()
				s.Nodes = actual
				s.Workload = cpu.At(t)
				s.Utilization = util / *theta
				s.Steps = steps
				s.Violations = violations
				s.ScaleOuts = c.ScaleOuts
				s.ScaleIns = c.ScaleIns
				s.Plan = statusPlan[i+1:]
				s.ApplyHolds = holds
				if guard != nil {
					s.DegradationMode = guard.Mode().String()
					s.DegradationReason = guard.LastReason()
					s.DegradedRounds = guard.DegradedRounds()
				}
				if wakeGuard != nil {
					s.Parked = wakeGuard.Parked()
					s.KeepWarm = wakeGuard.BreakerOpen()
					s.Parks = int(wakeGuard.Parks())
					s.Wakes = int(wakeGuard.Wakes())
					s.ParkedSteps = parkedSteps
				}
			})
			applySpan.EndVirtual(c.Now())
			ops.ObserveApply(time.Since(applyStart))
			if fan != nil && cal != nil && i < fan.Horizon() {
				if err := cal.Observe(cpu.At(t), fan.Step(i)); err != nil {
					return err
				}
				absErrSum += abs(cpu.At(t) - fan.At(i, 0.5))
			}
		}
		if fan != nil {
			obs.DefaultJournal.RecordTenantAt(c.Now(), *tenant, "forecast_error",
				fmt.Sprintf("plan round at %s: mean |actual - median forecast| = %.1f",
					cpu.TimeAt(origin).Format("Jan 02 15:04"), absErrSum/float64(len(plan))),
				map[string]float64{"mean_abs_error": absErrSum / float64(len(plan))})
		}
		// Daily-ish progress summary.
		if (origin-trainEnd)%stepsPerDay < planHorizon {
			logger.Printf("%s summary: %d/%d steps, %d violations (%.2f%%), %d scale-outs, %d scale-ins",
				cpu.TimeAt(origin).Format("Jan 02"), steps, replaySteps,
				violations, 100*float64(violations)/float64(steps), c.ScaleOuts, c.ScaleIns)
		}
		if wakeGuard != nil && !wakeGuard.Parked() {
			// The simulated apply path provisions instantly, so every round
			// the tenant is awake counts as a healthy wake result and keeps
			// the wake breaker closed.
			wakeGuard.OnWakeResult(true)
		}
		nextOrigin = origin + planHorizon
		rounds++
		if mgr != nil && (*ckptInterval <= 1 || rounds%*ckptInterval == 0) {
			writeCheckpoint(nextOrigin)
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
	if mgr != nil && nextOrigin != lastCkpt {
		writeCheckpoint(nextOrigin)
		logger.Printf("autoscaled: final checkpoint written (replay step %d)", nextOrigin-trainEnd)
	}
	fmt.Fprintf(stdout, "\nfinal: %d steps, %d violations (%.2f%%), %d scale-outs, %d scale-ins\n",
		steps, violations, 100*float64(violations)/float64(steps), c.ScaleOuts, c.ScaleIns)
	if guard != nil {
		fmt.Fprintf(stdout, "resilience: %d degraded rounds, %d apply holds, %d node failures, final mode %s\n",
			guard.DegradedRounds(), holds, c.Failures, guard.Mode())
	}
	if wakeGuard != nil {
		fmt.Fprintf(stdout, "serverless: %d parks, %d wakes, %d blocked parks, %d parked steps, parked now %v\n",
			wakeGuard.Parks(), wakeGuard.Wakes(), wakeGuard.BlockedParks(), parkedSteps, wakeGuard.Parked())
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
	if cal != nil {
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
		logger.Printf("autoscaled: wrote %d spans (%d dropped) to %s",
			obs.DefaultTracer.Len(), obs.DefaultTracer.Dropped(), *traceOut)
	}
	if *explain != "" {
		if err := printExplanation(stdout, *explain); err != nil {
			return err
		}
	}
	if *listen != "" && ctx.Err() == nil {
		// A daemon asked to expose its observability surface keeps
		// serving it after the replay — postmortem tooling can query
		// /decisions, /trace and /journal at leisure; ^C or SIGTERM
		// ends it gracefully.
		logger.Printf("autoscaled: replay complete; serving observability surface until interrupted")
		<-ctx.Done()
	}
	return nil
}

// daemonExtra is the owner-defined checkpoint section: wake-guard state
// and the parked-step tally, so a warm restart resumes the park/wake
// machine instead of treating a parked tenant as freshly active.
type daemonExtra struct {
	Wake        []byte
	ParkedSteps int
}

// wakeReasonOf maps a wake transition to the decision-record annotation
// narrated by -explain; an ordinary active round stays unannotated.
func wakeReasonOf(tr scaler.WakeTransition) string {
	switch tr {
	case scaler.WakePark:
		return "parked"
	case scaler.WakeKeepWarm:
		return "keep-warm"
	case scaler.WakeWake:
		return "wake"
	case scaler.WakeHold:
		return "wake-hold"
	}
	return ""
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

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// buildStrategy trains (cold start) or restores (model != nil, warm
// start — zero training epochs) the forecaster and assembles the
// requested strategy. It returns the forecaster's snapshotter for
// checkpointing (nil for the model-free reactive strategies) and the
// uncertainty threshold in effect. wrap is applied to the forecaster
// before it is handed to a strategy — the chaos injector hooks in
// there — but never to the calibration pass, which must see the
// genuine model.
func buildStrategy(name string, train *robustscale.Series, model []byte, tau, tau2, rho, theta float64, horizon, epochs int, wrap func(forecast.QuantileForecaster) forecast.QuantileForecaster, logf func(string, ...interface{})) (robustscale.Strategy, forecast.Snapshotter, float64, error) {
	switch name {
	case "reactive-max":
		return &robustscale.ReactiveMax{Window: 6, Theta: theta}, nil, 0, nil
	case "reactive-avg":
		return &robustscale.ReactiveAvg{Window: 6, HalfLife: 6, Theta: theta}, nil, 0, nil
	case "robust", "adaptive":
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
			// Calibrate rho as the median uncertainty of a forecast made
			// at the end of training.
			fan, err := tft.PredictQuantiles(train, horizon, robustscale.ScalingLevels)
			if err != nil {
				return nil, nil, 0, err
			}
			us, err := robustscale.ForecastUncertainties(fan)
			if err != nil {
				return nil, nil, 0, err
			}
			s := robustscale.NewSeries("u", train.Start, train.Step, us)
			rho = s.Quantile(0.5)
			logf("autoscaled: calibrated rho = %.2f", rho)
		}
		return &robustscale.Adaptive{Forecaster: wrap(tft), Tau1: tau, Tau2: tau2, Rho: rho, Theta: theta}, tft, rho, nil
	default:
		return nil, nil, 0, fmt.Errorf("autoscaled: unknown strategy %q", name)
	}
}
