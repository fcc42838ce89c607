// Command fleetsim drives the sharded multi-tenant control plane: N
// independent auto-scaling tenants — each with its own synthetic
// workload, forecaster, calibration window, guard, breaker and
// checkpoint record — replayed in lock-step rounds with forecaster
// inference batched across the worker pool.
//
// Usage:
//
//	fleetsim -tenants 1000                       # 1k-tenant replay, JSON summary on stdout
//	fleetsim -tenants 200 -workers 4 -out s.json # pin the worker count (results identical)
//	fleetsim -tenants 200 -state-dir /tmp/fleet -max-rounds 6   # stop at a round boundary...
//	fleetsim -tenants 200 -state-dir /tmp/fleet                 # ...and warm-resume bit-identically
//
// The summary's fleet_hash folds every tenant's decisions (allocation
// hash, steps, violations, cost) in tenant order: two runs with the same
// flags produce the same hash regardless of -workers, and a
// kill-restart through -state-dir resumes to the hash of an
// uninterrupted run. The timing section is wall-clock and excluded from
// that contract. -metrics dumps the Prometheus registry (tenant-labelled
// fleet counters included) for scraping or CI assertions.
//
// -serverless switches the fleet to the scale-to-zero model: idle
// tenants park to zero nodes after -park-after idle rounds, returning
// demand wakes them with a -wake-seconds cold-start penalty, and the
// planner sizes nodes jointly with count. The summary gains a
// "serverless" section (parks, wakes, wake-failure and latency
// percentiles, wake_slo_met against -wake-slo) and the wake chaos
// presets ("wake", "wake-storm") become meaningful.
//
// With -slo-target set (the default, 1%), the controller tracks a
// fleet-wide rolling error budget over -slo-window rounds and evaluates
// burn-rate alerts (-burn-windows overrides the defaults); the summary
// gains an "slo" section and enabling the plane never changes a single
// allocation or the fleet hash. -label-limit caps per-metric label
// cardinality — at 10k tenants the tenant-labelled series collapse into
// "other" past the cap instead of exploding the scrape. -listen serves
// the health surface (/healthz, /readyz flipping 503 -> 200 once the
// fleet is built, /slo, /alerts, /metrics, /journal, /decisions) and
// keeps serving after the run until interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"robustscale/internal/fleet"
	"robustscale/internal/obs"
	"robustscale/internal/persist"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(exitCode(run(ctx, os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode reports a run error on stderr and maps it to the process exit
// status: 0 on success (and -h), 2 for a command line that cannot run
// (unparsable flags, nonsense sizes), 1 for a run that failed.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2 // the FlagSet already printed the problem and the usage
	}
	fmt.Fprintf(stderr, "fleetsim: %v\n", err)
	if errors.Is(err, fleet.ErrSizes) {
		return 2
	}
	return 1
}

// errFlags marks a command line the FlagSet rejected.
var errFlags = errors.New("invalid command line")

// run is the whole command: it parses args, builds the fleet, replays it
// until the trace ends or ctx is cancelled (a signal, in main; the
// controller stops at a round boundary) and writes the summary to stdout
// or -out; logs go to stderr. With -listen it keeps serving the health
// surface after the run until ctx is cancelled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	logf := log.New(stderr, "", 0).Printf
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := fleet.DefaultConfig(0)
	var (
		tenants      = fs.Int("tenants", 1000, "fleet size")
		seed         = fs.Int64("seed", def.Seed, "fleet master seed (per-tenant seeds derive from it)")
		days         = fs.Int("days", def.Days, "trace length per tenant in days")
		trainDays    = fs.Int("train-days", def.TrainDays, "leading days visible as training history")
		units        = fs.Int("units", def.Units, "machines aggregated into each tenant's trace")
		horizon      = fs.Int("horizon", def.Horizon, "planning horizon in steps")
		theta        = fs.Float64("theta", def.Theta, "per-node workload threshold")
		tau          = fs.Float64("tau", def.Tau, "quantile level (robust) or optimistic level (adaptive)")
		tau2         = fs.Float64("tau2", def.Tau2, "conservative level for adaptive")
		rho          = fs.Float64("rho", 0, "adaptive uncertainty threshold (0 = auto-calibrate per tenant)")
		strategy     = fs.String("strategy", def.Strategy, "robust | adaptive | reactive-max")
		forecaster   = fs.String("forecaster", def.Forecaster, "seasonal-naive | naive | qmlp")
		guard        = fs.Bool("guard", true, "wrap every tenant's strategy in the resilience guard")
		workers      = fs.Int("workers", 0, "worker pool size batching tenant planning (0 = all CPUs; never changes results)")
		stateDir     = fs.String("state-dir", "", "fleet checkpoint root; each checkpointed round is one segment file <dir>/segment-<seq>.seg holding every tenant's record, and the generated workload series are kept once in <dir>/series-<seq>.ser so a restart reads them back (series_restored) instead of regenerating (empty disables durability)")
		ckptInterval = fs.Int("checkpoint-interval", 1, "commit a segment every N fleet rounds (with -state-dir)")
		retain       = fs.Int("state-retain", persist.DefaultRetain, "segments retained; a tenant whose newest record is damaged resumes from the next-older one")
		maxRounds    = fs.Int("max-rounds", 0, "stop after N fleet rounds at a round boundary (0 = run to the end; kill-restart drills resume from here)")
		out          = fs.String("out", "", "write the JSON summary to this file (empty = stdout)")
		metricsOut   = fs.String("metrics", "", "write the Prometheus metrics dump to this file after the run")
		perTenant    = fs.Bool("per-tenant", true, "include per-tenant records in the summary")
		decisions    = fs.Bool("decisions", true, "capture tenant-labelled decision records")

		sloTarget  = fs.Float64("slo-target", def.SLOTarget, "fleet-wide violation-rate SLO driving the error-budget tracker and burn-rate alerts (0 disables the SLO plane; never changes decisions)")
		sloWindow  = fs.Int("slo-window", def.SLOWindow, "rolling error-budget window in fleet rounds")
		burnSpec   = fs.String("burn-windows", "", `burn-rate alert rules as "[name=]<factor>x:<long>/<short>,..." (empty = defaults scaled to -slo-window)`)
		labelLimit = fs.Int("label-limit", obs.DefaultLabelLimit, `per-metric label cardinality cap; excess label values (e.g. tenant ids) collapse into the "other" series (<= 0 = unlimited)`)
		listen     = fs.String("listen", "", "address for the fleet health surface (/healthz /readyz /slo /alerts /metrics /journal /decisions; empty disables)")

		poolNodes    = fs.Int("pool", 0, "shared capacity pool in nodes; admission control clips aggregate demand to it (0 disables — bit-identical to no pool)")
		quarAfter    = fs.Int("quarantine-after", def.QuarantineAfter, "consecutive clipped rounds before a tenant is quarantined to reactive planning (0 disables)")
		quarRounds   = fs.Int("quarantine-rounds", def.QuarantineRounds, "rounds a quarantined tenant plans reactively before re-entry")
		chaosPreset  = fs.String("chaos", "", "fleet chaos preset (none | forecast | telemetry | apply | node-kill | all | smoke | zone-outage | pool-collapse | admission-reject | fleet; empty disables)")
		chaosSeed    = fs.Int64("chaos-seed", 0, "fault-schedule seed (0 = -seed)")
		chaosTenants = fs.String("chaos-tenants", "", "comma-separated tenant ids to enroll in tenant-local chaos (empty = all; fleet-level classes always apply)")
		zones        = fs.Int("zones", def.Zones, "failure domains tenants stripe across for zone-outage chaos")
		baseline     = fs.String("baseline", "", "fault-free summary JSON to measure blast radius against (adds a blast_radius section to stderr log)")
		violTol      = fs.Int("blast-viol-tol", -1, "absolute per-tenant violation drift tolerated before a bystander counts as affected (-1 = default)")
		costTol      = fs.Float64("blast-cost-tol", -1, "fractional per-tenant cost drift tolerated before a bystander counts as affected (-1 = default)")

		serverless    = fs.Bool("serverless", false, "serverless fleet: idle tenants scale to zero, wake from zero with a latency/cost penalty, and size nodes jointly with count (enables the wake chaos presets)")
		idleEps       = fs.Float64("idle-eps", 0, "workload level below which a serverless tenant counts as idle (0 = theta/10)")
		parkAfter     = fs.Int("park-after", 0, "consecutive idle rounds before a serverless tenant parks to zero (0 = default 3)")
		wakeDebounce  = fs.Int("wake-debounce", 0, "rounds after a wake during which parking is refused (anti-flapping guard; 0 = default 2)")
		keepWarmAfter = fs.Int("keep-warm-after", 0, "consecutive wake failures tripping the wake breaker into keep-warm degradation (0 = default 3)")
		wakeCooldown  = fs.Int("wake-breaker-cooldown", 0, "rounds the wake breaker stays open before a half-open probe (0 = default 6)")
		wakeSeconds   = fs.Float64("wake-seconds", 0, "fault-free cold-wake provisioning latency in seconds (0 = default 30)")
		wakeCost      = fs.Float64("wake-cost", 0, "cost units charged per wake from zero (0 = default 2)")
		wakeSLO       = fs.Float64("wake-slo", 0, "p99 wake-latency SLO in seconds for the summary's wake_slo_met verdict (0 = default 1800)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}

	// Size flags are load-bearing for every derived loop; reject nonsense
	// (here, or as fleet.New does) with the usage, before it turns into a
	// confusing failure deep in the build.
	badSizes := func(err error) error {
		fs.Usage()
		return err
	}
	if *tenants <= 0 {
		return badSizes(fmt.Errorf("%w: -tenants must be positive, got %d", fleet.ErrSizes, *tenants))
	}
	if *workers < 0 {
		return badSizes(fmt.Errorf("%w: -workers must be >= 0 (0 = all CPUs), got %d", fleet.ErrSizes, *workers))
	}

	var burnRules []obs.BurnRule
	if *burnSpec != "" {
		var err error
		if burnRules, err = obs.ParseBurnRules(*burnSpec); err != nil {
			return fmt.Errorf("-burn-windows: %w", err)
		}
	}
	cfg := fleet.Config{
		Tenants: *tenants, Seed: *seed,
		Days: *days, TrainDays: *trainDays, Units: *units,
		Horizon: *horizon, Theta: *theta, Tau: *tau, Tau2: *tau2, Rho: *rho,
		Strategy: *strategy, Forecaster: *forecaster, Guard: *guard,
		Workers: *workers, StateDir: *stateDir,
		CheckpointInterval: *ckptInterval, Retain: *retain,
		MaxRounds: *maxRounds, PerTenant: *perTenant,
		SLOTarget: *sloTarget, SLOWindow: *sloWindow, BurnRules: burnRules,
		PoolNodes: *poolNodes, QuarantineAfter: *quarAfter, QuarantineRounds: *quarRounds,
		Chaos: *chaosPreset, ChaosSeed: *chaosSeed, Zones: *zones,
		Serverless: *serverless, IdleEps: *idleEps,
		ParkAfterRounds: *parkAfter, WakeDebounceRounds: *wakeDebounce,
		KeepWarmAfterFails: *keepWarmAfter, WakeBreakerCooldown: *wakeCooldown,
		WakeSeconds: *wakeSeconds, WakeCost: *wakeCost, WakeSLOSeconds: *wakeSLO,
	}
	if *chaosTenants != "" {
		for _, id := range strings.Split(*chaosTenants, ",") {
			if id = strings.TrimSpace(id); id != "" {
				cfg.ChaosTenants = append(cfg.ChaosTenants, id)
			}
		}
	}
	obs.DefaultDecisions.SetEnabled(*decisions)
	obs.Default.SetLabelLimit(*labelLimit)

	// The health surface binds before the (potentially long) fleet build:
	// /healthz and /metrics answer immediately, /readyz stays 503 until
	// every tenant is built, and /slo and /alerts come alive with the
	// controller's tracker.
	health := obs.NewHealth()
	var sloPtr atomic.Pointer[obs.SLOTracker]
	var httpSrv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("cannot serve health surface on %s: %w", *listen, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/healthz", health.LiveHandler())
		mux.Handle("/readyz", health.ReadyHandler())
		mux.Handle("/slo", sloHandler(&sloPtr, (*obs.SLOTracker).Handler))
		mux.Handle("/alerts", sloHandler(&sloPtr, (*obs.SLOTracker).AlertsHandler))
		mux.Handle("/metrics", obs.Default.Handler())
		mux.Handle("/journal", obs.DefaultJournal.Handler())
		mux.Handle("/decisions", obs.DefaultDecisions.Handler())
		httpSrv = &http.Server{Handler: mux}
		go func() {
			logf("fleetsim: health surface on http://%s (/healthz /readyz /slo /alerts /metrics /journal /decisions)", ln.Addr())
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logf("fleetsim: health surface: %v", err)
			}
		}()
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(shutCtx); err != nil {
				logf("fleetsim: draining health surface: %v", err)
			}
		}()
	}

	t0 := time.Now()
	ctrl, err := fleet.New(cfg)
	if errors.Is(err, fleet.ErrSizes) {
		return badSizes(err)
	}
	if err != nil {
		return err
	}
	if slo := ctrl.SLO(); slo != nil {
		sloPtr.Store(slo)
	}
	health.SetReady(true)
	buildSecs := time.Since(t0).Seconds()
	logf("fleetsim: built %d tenants in %.2fs (strategy=%s forecaster=%s workers=%d)",
		cfg.Tenants, buildSecs, cfg.Strategy, cfg.Forecaster, cfg.Workers)

	t0 = time.Now()
	rep, err := ctrl.Run(ctx)
	if err != nil {
		return err
	}
	logf("fleetsim: replayed %d rounds (%d tenant-steps) in %.2fs; violations %.3f%%, cost %d node-steps, fleet hash %s",
		rep.Rounds, rep.Steps, time.Since(t0).Seconds(),
		100*rep.ViolationRate, rep.CostNodeSteps, rep.FleetHash)
	if s := rep.Serverless; s != nil {
		logf("fleetsim: serverless: %d parks, %d wakes (%d failed, %d breaker trips), %d parked steps; wake p99 %.0fs vs SLO %.0fs (met=%v)",
			s.Parks, s.Wakes, s.WakeFailures, s.BreakerTrips, s.ParkedSteps,
			s.WakeP99Seconds, s.WakeSLOSeconds, s.WakeSLOMet)
	}

	if *baseline != "" {
		br, err := blastRadiusAgainst(*baseline, rep, *violTol, *costTol)
		if err != nil {
			return fmt.Errorf("-baseline: %w", err)
		}
		rep.BlastRadius = &br
		logf("fleetsim: blast radius %.4f (%d/%d bystanders affected, %d tenants faulted)",
			br.Radius, br.Affected, br.Bystanders, br.Faulted)
	}
	if err := writeSummary(rep, *out, stdout); err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut); err != nil {
			return err
		}
	}
	if *listen != "" && ctx.Err() == nil {
		logf("fleetsim: run complete; serving health surface until interrupted")
		<-ctx.Done()
	}
	return nil
}

// sloHandler defers to the given SLOTracker handler once the controller
// exists; until then (or with the SLO plane disabled) it answers 503 so
// probes can tell "not yet" from "never".
func sloHandler(p *atomic.Pointer[obs.SLOTracker], h func(*obs.SLOTracker) http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		slo := p.Load()
		if slo == nil {
			http.Error(w, "slo plane not available", http.StatusServiceUnavailable)
			return
		}
		h(slo).ServeHTTP(w, req)
	})
}

// blastRadiusAgainst loads a fault-free baseline summary and measures
// how far this run's faults leaked beyond the tenants they target.
func blastRadiusAgainst(path string, rep *fleet.Report, violTol int, costTol float64) (fleet.BlastRadius, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fleet.BlastRadius{}, fmt.Errorf("reading baseline summary: %w", err)
	}
	var base fleet.Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fleet.BlastRadius{}, fmt.Errorf("parsing baseline summary: %w", err)
	}
	return fleet.MeasureBlastRadius(&base, rep, violTol, costTol)
}

// writeSummary encodes the report as indented JSON to the file or
// stdout.
func writeSummary(rep *fleet.Report, path string, stdout io.Writer) error {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding summary: %w", err)
	}
	if path == "" {
		_, err := fmt.Fprintln(stdout, string(enc))
		return err
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing summary: %w", err)
	}
	return nil
}

// writeMetrics dumps the process-wide Prometheus registry to a file.
func writeMetrics(path string) error {
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		return fmt.Errorf("rendering metrics: %w", err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	return nil
}
