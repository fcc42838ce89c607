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
// tenants park to zero nodes after three idle rounds, returning demand
// wakes them with a 30-second cold-start penalty, and the planner sizes
// nodes jointly with count (fleet.Config.Serverless documents where each
// of those defaults lives). The summary gains a
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
	fmt.Fprintf(stderr, "fleetsim: %v\n", err)
	if errors.Is(err, fleet.ErrConfig) {
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
	f := fleet.BindFlags(fs, fleet.DefaultConfig(1000))
	cfg := &f.Config
	fs.IntVar(&cfg.Tenants, "tenants", cfg.Tenants, "fleet size")
	fs.IntVar(&cfg.Days, "days", cfg.Days, "trace length per tenant in days")
	fs.IntVar(&cfg.TrainDays, "train-days", cfg.TrainDays, "leading days visible as training history")
	fs.IntVar(&cfg.Units, "units", cfg.Units, "machines aggregated into each tenant's trace")
	fs.StringVar(&cfg.Forecaster, "forecaster", cfg.Forecaster, "seasonal-naive | naive | qmlp")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "worker pool size batching tenant planning (0 = all CPUs; never changes results)")
	fs.IntVar(&cfg.MaxRounds, "max-rounds", cfg.MaxRounds, "stop after N fleet rounds at a round boundary (0 = run to the end; kill-restart drills resume from here)")
	fs.BoolVar(&cfg.PerTenant, "per-tenant", cfg.PerTenant, "include per-tenant records in the summary")
	fs.IntVar(&cfg.PoolNodes, "pool", cfg.PoolNodes, "shared capacity pool in nodes; admission control clips aggregate demand to it (0 disables — bit-identical to no pool)")
	fs.IntVar(&cfg.QuarantineAfter, "quarantine-after", cfg.QuarantineAfter, "consecutive clipped rounds before a tenant is quarantined to reactive planning (0 disables)")
	fs.IntVar(&cfg.QuarantineRounds, "quarantine-rounds", cfg.QuarantineRounds, "rounds a quarantined tenant plans reactively before re-entry")
	fs.Func("chaos-tenants", "comma-separated tenant `ids` to enroll in tenant-local chaos (empty = all; fleet-level classes always apply)", func(s string) error {
		cfg.ChaosTenants = strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
		return nil
	})
	fs.IntVar(&cfg.Zones, "zones", cfg.Zones, "failure domains tenants stripe across for zone-outage chaos")
	fs.Float64Var(&cfg.WakeSLOSeconds, "wake-slo", cfg.WakeSLOSeconds, "p99 wake-latency SLO in seconds for the summary's wake_slo_met verdict")
	var (
		out        = fs.String("out", "", "write the JSON summary to this file (empty = stdout)")
		metricsOut = fs.String("metrics", "", "write the Prometheus metrics dump to this file after the run")
		decisions  = fs.Bool("decisions", true, "capture tenant-labelled decision records")
		baseline   = fs.String("baseline", "", "fault-free summary JSON to measure blast radius against (adds a blast_radius section to stderr log)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}

	// Sizes, names and presets are load-bearing for every derived loop;
	// reject nonsense (here, or as fleet.New does) with the usage, before
	// it turns into a confusing failure deep in the build.
	badConfig := func(err error) error {
		fs.Usage()
		return err
	}
	if cfg.Workers < 0 {
		return badConfig(fmt.Errorf("%w: -workers must be >= 0 (0 = all CPUs), got %d", fleet.ErrConfig, cfg.Workers))
	}
	obs.DefaultDecisions.SetEnabled(*decisions)
	obs.Default.SetLabelLimit(f.LabelLimit)

	// The health surface binds before the (potentially long) fleet build:
	// /healthz and /metrics answer immediately, /readyz stays 503 until
	// every tenant is built, and /slo and /alerts come alive with the
	// controller's tracker.
	health := obs.NewHealth()
	var sloPtr atomic.Pointer[obs.SLOTracker]
	var httpSrv *http.Server
	if f.Listen != "" {
		ln, err := net.Listen("tcp", f.Listen)
		if err != nil {
			return fmt.Errorf("cannot serve health surface on %s: %w", f.Listen, err)
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
	ctrl, err := fleet.New(*cfg)
	if errors.Is(err, fleet.ErrConfig) {
		return badConfig(err)
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
		br, err := blastRadiusAgainst(*baseline, rep)
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
	if f.Listen != "" && ctx.Err() == nil {
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
func blastRadiusAgainst(path string, rep *fleet.Report) (fleet.BlastRadius, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fleet.BlastRadius{}, fmt.Errorf("reading baseline summary: %w", err)
	}
	var base fleet.Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fleet.BlastRadius{}, fmt.Errorf("parsing baseline summary: %w", err)
	}
	return fleet.MeasureBlastRadius(&base, rep)
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
