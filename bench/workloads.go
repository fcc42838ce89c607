//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/fleet"
	"robustscale/internal/forecast"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

// sizes scales every workload. fullSizes is what BENCHMARK.json runs on
// the 2-core reference box; bench_test.go shrinks it to a smoke.
type sizes struct {
	replayTenants, replayDays int
	// durable: checkpoint every round for durableRounds, then a warm
	// restart and restartRounds more, all inside the measured region.
	durableTenants, durableRounds, restartRounds int
	stormTenants, stormDays                      int
	// paper-pipeline: DeepAR and TFT fitted on the first paperTrainDays of
	// an Alibaba- and a Google-style trace, evaluated on the rest.
	paperTrainDays, paperEvalDays, paperUnits int
	deepar                                    forecast.DeepARConfig
	tft                                       forecast.TFTConfig
	// layer drive: driveTenants evenly spaced tenants, driveRounds rounds
	// each, a checkpoint every checkpointEvery rounds.
	driveTenants, driveRounds, checkpointEvery int
	// kernelIters is the loop length of the nn and parallel kernels.
	kernelIters int
	minReps     int
}

func fullSizes() sizes {
	sz := sizes{
		replayTenants: 1000, replayDays: 16,
		durableTenants: 400, durableRounds: 3, restartRounds: 1,
		stormTenants: 1000, stormDays: 12,
		paperTrainDays: 14, paperEvalDays: 7, paperUnits: 8,
		deepar: forecast.DefaultDeepARConfig(), tft: forecast.DefaultTFTConfig(),
		driveTenants: 64, driveRounds: 12, checkpointEvery: 6,
		kernelIters: 1 << 16,
		minReps:     3,
	}
	// Default model shapes; one epoch keeps three fits per run inside the
	// time cap and changes nothing about the cost of a planning round.
	sz.deepar.Epochs, sz.tft.Epochs = 1, 1
	return sz
}

// env is what one benchmark run hands every rep: the generator seed (the
// only thing the program under test receives from it), the sizes, the
// pinned worker count and the directory temp state goes under.
type env struct {
	seed    int64
	sz      sizes
	workers int
	root    string
	paper   *paperFit // the paper workload's fitted models, once per run
}

// repResult is one repetition of (set-up -> measured region).
type repResult struct {
	tenants      int
	tenantRounds int64
	setup        delta // rep start until the measured region starts
	region       delta // the measured region
	heap         uint64
	peakRSSMB    float64 // resident-set high-water mark of the rep, set by the runner
	hash         string
	failed       int64
	problems     []string

	// Whole-call rows for the traced pass.
	steps, violations int64   // graded steps and how many violated theta
	cost, holds       int64   // node-steps paid; rounds the allocation was held
	faults            float64 // chaos faults fired inside the region
	commits           float64 // checkpoint files written inside the region
}

func (r *repResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one set of inputs. rep runs one repetition. prepare, when
// set, is set-up too expensive to repeat in every rep: it runs once per
// run, its usage is the run's one setup_s sample, and what it built
// reaches the reps through env. verify, when set, computes outside every
// timed span the hash the reps must agree with. The three flags say
// which layers a tenant-round passes through, for the unattributed-time
// row.
type workload struct {
	name, why                  string
	fleet, durable, serverless bool
	prepare                    func(e *env) (delta, error)
	rep                        func(e *env) (*repResult, error)
	verify                     func(e *env) (string, error)
	// driveConfig is the fleet configuration the layer drive borrows its
	// tenant mix and planner settings from.
	driveConfig func(e *env) fleet.Config
}

var workloads = []workload{
	{
		name: "fleet-replay", fleet: true,
		why:         "plain plan->apply hot loop over a seasonal-naive fleet; persist, nn and wake logic do nothing, so a gain there must not show here",
		rep:         func(e *env) (*repResult, error) { return fleetRep(e, replayConfig(e), 0) },
		driveConfig: replayConfig,
	},
	{
		name: "fleet-durable", fleet: true, durable: true,
		why: "same fleet checkpointing every round to a real disk, then a warm restart; persist does almost all the work and reads sit beside writes",
		rep: func(e *env) (*repResult, error) { return fleetRep(e, durableConfig(e), e.sz.restartRounds) },
		verify: func(e *env) (string, error) {
			cfg := durableConfig(e)
			cfg.MaxRounds += e.sz.restartRounds
			ctrl, err := fleet.New(cfg)
			if err != nil {
				return "", err
			}
			rep, err := ctrl.Run(context.Background())
			if err != nil {
				return "", err
			}
			return rep.FleetHash, nil
		},
		driveConfig: durableConfig,
	},
	{
		name: "fleet-serverless-storm", fleet: true, serverless: true,
		why:         "scale-to-zero tenants under a binding pool and wake-storm chaos; the sequential admission barrier, wake guard, plant and journal are hot",
		rep:         func(e *env) (*repResult, error) { return fleetRep(e, stormConfig(e), 0) },
		driveConfig: stormConfig,
	},
	{
		name:    "paper-pipeline",
		why:     "four single-tenant DeepAR/TFT pipelines through scaler.Evaluate; nn and forecast do nearly all the work, fleet and persist are bypassed",
		prepare: fitPaper,
		rep:     paperRep,
		// The drive's side layers (persist, chaos, wake) have no
		// counterpart here; they run at the default fleet settings.
		driveConfig: func(e *env) fleet.Config { return baseConfig(e, e.sz.driveTenants, 4) },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func baseConfig(e *env, tenants, days int) fleet.Config {
	cfg := fleet.DefaultConfig(tenants)
	cfg.Seed = e.seed
	cfg.Days = days
	cfg.Workers = e.workers
	return cfg
}

func replayConfig(e *env) fleet.Config { return baseConfig(e, e.sz.replayTenants, e.sz.replayDays) }

func durableConfig(e *env) fleet.Config {
	cfg := baseConfig(e, e.sz.durableTenants, e.sz.replayDays)
	cfg.MaxRounds = e.sz.durableRounds
	return cfg
}

func stormConfig(e *env) fleet.Config {
	cfg := baseConfig(e, e.sz.stormTenants, e.sz.stormDays)
	cfg.Serverless = true
	cfg.Chaos = "wake-storm"
	cfg.PoolNodes = cfg.Tenants * 6 / 5
	return cfg
}

const stepsPerDay = int(24 * time.Hour / timeseries.DefaultStep)

// expectedRounds is how many rounds one Run of cfg replays.
func expectedRounds(cfg fleet.Config) int {
	if cfg.MaxRounds > 0 {
		return cfg.MaxRounds
	}
	return (cfg.Days - cfg.TrainDays) * stepsPerDay / cfg.Horizon
}

// fleetRep is one repetition of a fleet workload: fleet.New is the
// set-up, Run the measured region. With restartRounds > 0 the fleet
// checkpoints to a fresh on-disk state dir and the region continues
// through a warm restart (fleet.New on the populated dir) and
// restartRounds more rounds.
func fleetRep(e *env, cfg fleet.Config, restartRounds int) (*repResult, error) {
	if restartRounds > 0 {
		dir, err := newStateDir(e.root)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.StateDir = dir
	}
	ctx := context.Background()
	rounds := expectedRounds(cfg)
	s0 := sample()
	ctrl, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	res := &repResult{tenants: cfg.Tenants, setup: sample().since(s0), heap: liveHeap()}
	faults0, commits0 := chaos.InjectedTotal(), persist.CheckpointWrites()
	r0 := sample()
	rep, err := ctrl.Run(ctx)
	if err == nil && restartRounds > 0 {
		cfg.MaxRounds = restartRounds
		rounds += restartRounds
		if ctrl, err = fleet.New(cfg); err == nil {
			rep, err = ctrl.Run(ctx)
		}
	}
	res.region = sample().since(r0)
	res.faults = chaos.InjectedTotal() - faults0
	res.commits = persist.CheckpointWrites() - commits0
	want := int64(cfg.Tenants) * int64(rounds)
	if err != nil {
		// Every tenant-round of a run that errored is lost.
		res.tenantRounds = want
		res.failed += want
		res.problems = append(res.problems, err.Error())
		return res, nil
	}
	res.tenantRounds = rep.Steps / int64(cfg.Horizon)
	res.hash = rep.FleetHash
	res.steps, res.violations = rep.Steps, rep.Violations
	res.cost, res.holds = rep.CostNodeSteps, rep.Holds
	res.check(rep.Steps == want*int64(cfg.Horizon), "steps %d, want tenants*rounds*horizon = %d", rep.Steps, want*int64(cfg.Horizon))
	res.check(rep.Violations <= rep.Steps, "violations %d exceed steps %d", rep.Violations, rep.Steps)
	if restartRounds > 0 {
		if cold := cfg.Tenants - rep.WarmStarts; cold > 0 {
			res.failed += int64(cold)
			res.problems = append(res.problems, fmt.Sprintf("%d tenants cold-started at the restart", cold))
		}
		res.check(rep.CorruptSnaps == 0, "%d corrupt snapshots at the restart", rep.CorruptSnaps)
	}
	if cfg.PoolNodes > 0 {
		res.check(rep.Pool != nil && rep.Pool.ShedRounds > 0, "pool of %d nodes never bound (shed_rounds = 0)", cfg.PoolNodes)
	}
	if cfg.Serverless {
		res.check(rep.Serverless != nil && rep.Serverless.Wakes > 0, "serverless fleet never woke a tenant")
	}
	return res, nil
}

// model is a forecaster that can be checkpointed.
type model interface {
	forecast.QuantileForecaster
	forecast.Snapshotter
}

// pipeline is one single-tenant forecaster on one trace. fresh builds an
// unfitted model of the same configuration, for restoring a snapshot.
type pipeline struct {
	name   string
	series *timeseries.Series
	qf     model
	fresh  func() model
}

// paperTheta sizes nodes so the paper traces need a handful of them.
const (
	paperTheta   = 60
	paperTau     = 0.9
	paperHorizon = 12
)

// buildPipelines generates the two paper traces from the seed and fits
// DeepAR and TFT on the training prefix of each.
func buildPipelines(e *env, tr *tracer) ([]pipeline, error) {
	var out []pipeline
	trainEnd := e.sz.paperTrainDays * stepsPerDay
	for k, style := range []func(int64) trace.Config{trace.AlibabaStyle, trace.GoogleStyle} {
		tc := style(e.seed + int64(k))
		tc.Days = e.sz.paperTrainDays + e.sz.paperEvalDays
		tc.Units = e.sz.paperUnits
		tc.Resources = []trace.Resource{trace.CPU}
		s0 := tr.begin()
		t, err := trace.Generate(tc)
		if err != nil {
			return nil, err
		}
		series, err := t.Series(trace.CPU)
		if err != nil {
			return nil, err
		}
		tr.end("trace.generate", 2*k, s0, 1)
		train := series.Slice(0, trainEnd)

		dc := e.sz.deepar
		dc.Seed, dc.Workers = e.seed, e.workers
		tcfg := e.sz.tft
		tcfg.Seed, tcfg.Workers = e.seed, e.workers
		for j, p := range []pipeline{
			{name: "deepar/" + tc.Name, fresh: func() model { return forecast.NewDeepAR(dc) }},
			{name: "tft/" + tc.Name, fresh: func() model { return forecast.NewTFT(tcfg) }},
		} {
			p.series, p.qf = series, p.fresh()
			s0 = tr.begin()
			if err := p.qf.(interface {
				Fit(*timeseries.Series) error
			}).Fit(train); err != nil {
				return nil, fmt.Errorf("fitting %s: %w", p.name, err)
			}
			tr.end("forecast.fit", 2*k+j, s0, 1)
			out = append(out, p)
		}
	}
	return out, nil
}

// paperFit is the paper workload's set-up, done once per run: fitting the
// four models costs several CPU-seconds, more than a run can repeat per
// rep, so reps restore fresh models from these snapshots and setup_s is
// this one sample.
type paperFit struct {
	pipes []pipeline // qf dropped; snaps[i] holds pipes[i]'s fitted model
	snaps [][]byte
}

// fitPaper is the paper workload's prepare step.
func fitPaper(e *env) (delta, error) {
	s0 := sample()
	pipes, err := buildPipelines(e, nil)
	if err != nil {
		return delta{}, err
	}
	fit := &paperFit{pipes: pipes, snaps: make([][]byte, len(pipes))}
	setup := sample().since(s0)
	for i := range pipes {
		var b bytes.Buffer
		if err := pipes[i].qf.Save(&b); err != nil {
			return delta{}, fmt.Errorf("snapshotting %s: %w", pipes[i].name, err)
		}
		fit.snaps[i], pipes[i].qf = b.Bytes(), nil
	}
	e.paper = fit
	return setup, nil
}

// paperRep is one repetition of the paper pipeline: the four rolling
// evaluations, on models restored from the run's fitted snapshots, are
// the measured region.
func paperRep(e *env) (*repResult, error) {
	fit := e.paper
	pipes := append([]pipeline(nil), fit.pipes...)
	var err error
	for i := range pipes {
		pipes[i].qf = pipes[i].fresh()
		if err := pipes[i].qf.Load(bytes.NewReader(fit.snaps[i])); err != nil {
			return nil, fmt.Errorf("restoring %s: %w", pipes[i].name, err)
		}
	}
	res := &repResult{tenants: len(pipes), heap: liveHeap()}
	evals := make([]*scaler.EvalResult, len(pipes))
	r0 := sample()
	for i, p := range pipes {
		strat := &scaler.Robust{Forecaster: p.qf, Tau: paperTau, Theta: paperTheta}
		evals[i], err = scaler.Evaluate(strat, p.series, scaler.EvalConfig{
			Theta: paperTheta, Horizon: paperHorizon, Start: e.sz.paperTrainDays * stepsPerDay, Tenant: p.name,
		})
		if err != nil {
			return nil, fmt.Errorf("evaluating %s: %w", p.name, err)
		}
	}
	res.region = sample().since(r0)
	h := fnv.New64a()
	for _, ev := range evals {
		rounds := len(ev.Allocations) / paperHorizon
		res.tenantRounds += int64(rounds)
		res.steps += int64(ev.Report.Steps)
		res.violations += int64(ev.Report.UnderProvisioned)
		res.cost += int64(ev.Report.TotalNodes)
		for _, a := range ev.Allocations {
			fmt.Fprintf(h, "%d,", a)
		}
	}
	res.hash = fmt.Sprintf("%016x", h.Sum64())
	want := int64(len(pipes)) * int64(e.sz.paperEvalDays*stepsPerDay/paperHorizon)
	res.check(res.tenantRounds == want, "evaluated %d rounds, want %d", res.tenantRounds, want)
	res.check(res.steps == res.tenantRounds*paperHorizon, "steps %d, want rounds*horizon = %d", res.steps, res.tenantRounds*paperHorizon)
	res.check(res.violations <= res.steps, "violations %d exceed steps %d", res.violations, res.steps)
	return res, nil
}
