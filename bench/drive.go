//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/cluster"
	"robustscale/internal/fleet"
	"robustscale/internal/forecast"
	"robustscale/internal/nn"
	"robustscale/internal/obs"
	"robustscale/internal/optimize"
	"robustscale/internal/parallel"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

// The layer drive measures single layers from outside the program: for
// a few tenants of the workload's mix it assembles the tenant-round from
// public calls into each module, with a span around every call. Spans
// live in memory and are written as one Chrome-trace file when the drive
// ends. The drive runs on one goroutine, so a span's duration is the
// layer's busy time for that call.

// span is one recorded call (or a batch of n identical calls) into a
// layer. tid is the drive tenant; round ties the spans of one
// tenant-round together (-1 outside any round).
type span struct {
	name       string
	tid, round int
	start, dur time.Duration
	n          int
}

// tracer collects spans. A nil tracer records nothing, which is how the
// untraced twin of the drive (for bench.trace_overhead_pct) and the
// untraced reps run.
type tracer struct {
	epoch time.Time
	round int
	spans []span
	// allocs accumulates heap objects allocated inside the calls that
	// the drive brackets with countAllocs, and calls how many it
	// bracketed, by span name.
	allocs map[string]uint64
	calls  map[string]int
}

func newTracer() *tracer {
	// Room for a whole drive, so recording a span never allocates inside
	// a call whose allocations are being counted.
	return &tracer{epoch: time.Now(), round: -1, spans: make([]span, 0, 1<<15), allocs: map[string]uint64{}, calls: map[string]int{}}
}

func (t *tracer) begin() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

func (t *tracer) end(name string, tid int, start time.Duration, n int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, tid: tid, round: t.round, start: start, dur: time.Since(t.epoch) - start, n: n})
}

// countAllocs runs fn and, when count is set, charges the heap objects it
// allocated to name. The two counter reads stop the world, so the drive
// asks for them on each tenant's last (steady-state) round only; they
// sit outside the span fn records.
func (t *tracer) countAllocs(name string, count bool, fn func()) {
	if t == nil || !count {
		fn()
		return
	}
	before := mallocs()
	fn()
	t.allocs[name] += mallocs() - before
	t.calls[name]++
}

// allocsPerCall is the mean heap objects per bracketed call.
func (t *tracer) allocsPerCall(name string) float64 {
	return float64(t.allocs[name]) / float64(t.calls[name])
}

// perCall is the layer's steady-state busy time per unit of work: the
// median over each tenant's spans of duration / work count, then the
// median across tenants, so neither a tenant's first (cold) round nor a
// descheduled span moves the row.
func (t *tracer) perCall(name string) time.Duration {
	by := map[int][]float64{}
	for _, s := range t.spans {
		if s.name == name && s.n > 0 {
			by[s.tid] = append(by[s.tid], float64(s.dur)/float64(s.n))
		}
	}
	if len(by) == 0 {
		return 0
	}
	per := make([]float64, 0, len(by))
	for _, xs := range by {
		per = append(per, median(xs))
	}
	return time.Duration(median(per))
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto): one row per drive tenant, complete ("X") events sorted by
// start so nesting renders, work count and round in args.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Cat: "bench", Ph: "X", PID: 1, TID: s.tid,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			Args: map[string]int{"n": s.n, "round": s.round},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func (t *tracer) writeChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driveTenant is one tenant of the layer drive: a trace, a fitted
// forecaster and the planner built on it.
type driveTenant struct {
	id       string
	index    int
	series   *timeseries.Series
	trainEnd int
	qf       forecast.QuantileForecaster
	strat    scaler.Strategy
}

// fleetTenants builds the drive's tenants the way fleet.New builds the
// workload's: n evenly spaced indices of cfg.Tenants, even ones on the
// diurnal archetype and odd ones on the bursty one (the scale-to-zero
// pair for a serverless fleet), a seasonal-naive forecaster fitted on
// the training days, and a guarded robust planner.
func fleetTenants(cfg fleet.Config, n int, tr *tracer) ([]*driveTenant, error) {
	if n > cfg.Tenants {
		n = cfg.Tenants
	}
	out := make([]*driveTenant, 0, n)
	for k := 0; k < n; k++ {
		// Odd strides keep both parities (archetypes) in the sample.
		index := k * (cfg.Tenants / n)
		if k%2 == 1 && index%2 == 0 {
			index++
		}
		id := fleet.TenantID(index)
		seed := chaos.TenantSeed(cfg.Seed, id)
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
		tc.Units, tc.Days, tc.Resources = cfg.Units, cfg.Days, []trace.Resource{trace.CPU}
		s0 := tr.begin()
		gen, err := trace.Generate(tc)
		if err != nil {
			return nil, err
		}
		series, err := gen.Series(trace.CPU)
		if err != nil {
			return nil, err
		}
		tr.end("trace.generate", k, s0, 1)
		trainEnd := cfg.TrainDays * stepsPerDay
		sn := forecast.NewSeasonalNaive(stepsPerDay)
		s0 = tr.begin()
		if err := sn.Fit(series.Slice(0, trainEnd)); err != nil {
			return nil, err
		}
		tr.end("forecast.fit", k, s0, 1)
		t := &driveTenant{id: id, index: index, series: series, trainEnd: trainEnd, qf: sn}
		t.strat = &scaler.Guard{
			Inner:  &scaler.Robust{Forecaster: sn, Tau: cfg.Tau, Theta: cfg.Theta},
			Config: scaler.GuardConfig{Theta: cfg.Theta, Tau: cfg.Tau},
		}
		out = append(out, t)
	}
	return out, nil
}

// paperTenants turns the paper pipelines into drive tenants.
func paperTenants(e *env, tr *tracer) ([]*driveTenant, error) {
	pipes, err := buildPipelines(e, tr)
	if err != nil {
		return nil, err
	}
	out := make([]*driveTenant, len(pipes))
	for k, p := range pipes {
		out[k] = &driveTenant{
			id: fleet.TenantID(k), index: k, series: p.series,
			trainEnd: e.sz.paperTrainDays * stepsPerDay, qf: p.qf,
			strat: &scaler.Robust{Forecaster: p.qf, Tau: paperTau, Theta: paperTheta},
		}
	}
	return out, nil
}

// predictWarm is the forecast call a planner makes: the warm fast path
// when the forecaster keeps one.
func predictWarm(qf forecast.QuantileForecaster, hist *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	if inc, ok := qf.(forecast.IncrementalForecaster); ok {
		return inc.PredictQuantilesWarm(hist, h, levels)
	}
	return qf.PredictQuantiles(hist, h, levels)
}

// driveResult is what one pass of the layer drive measured besides its
// spans.
type driveResult struct {
	// busy is the drive thread's time in the round passes, checkpoint
	// writes excluded (they wait on the disk): what the traced/untraced
	// pair compares. Monotonic-clock time, like the spans themselves;
	// the kernel's tick-sampled CPU clocks cannot resolve a few
	// milliseconds.
	busy time.Duration
	// Checkpoint writes: CPU split from getrusage around each write
	// (the write is ~1 ms, the two reads ~1 us), bytes from the encoder.
	writes              int
	writeUser, writeSys float64 // seconds
	checkpointBytes     int
}

// driveLayers runs the layer drive over the given tenants. cfg supplies
// the planner settings (horizon, theta, tau) and the serverless and
// chaos knobs of the side layers; tr == nil runs the identical work
// without spans.
func driveLayers(e *env, cfg fleet.Config, tenants []*driveTenant, tr *tracer) (*driveResult, error) {
	// The drive's CPU readings are per thread, so the runtime's background
	// workers (GC, scavenger) waking during an fsync wait are not charged
	// to the layer being measured.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	h, theta := cfg.Horizon, cfg.Theta
	levels := []float64{cfg.Tau}
	res := &driveResult{}

	// chaos: one fleet schedule, then each tenant's restriction of it.
	// Workloads without chaos still drive the wake-storm preset, so the
	// row exists (and must not move) everywhere.
	preset := cfg.Chaos
	if preset == "" {
		preset = "wake-storm"
	}
	prof, err := chaos.Preset(preset)
	if err != nil {
		return nil, err
	}
	prof.Seed = cfg.Seed
	prof.Steps = (cfg.Days - cfg.TrainDays) * stepsPerDay
	s0 := tr.begin()
	fs, err := chaos.NewFleetSchedule(prof, cfg.Zones)
	if err != nil {
		return nil, err
	}
	tr.end("chaos.fleet_schedule", 0, s0, 1)

	stateDir, err := newStateDir(e.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	journal := obs.NewJournal(1024)
	sizes := cluster.DefaultNodeSizes()
	path := make([]float64, h)
	var planBuf, optBuf []int
	shaped := make([]int, h)

	for k, t := range tenants {
		s0 = tr.begin()
		sched, err := fs.TenantSchedule(t.index, t.id)
		if err != nil {
			return nil, err
		}
		tr.end("chaos.schedule_build", k, s0, 1)

		view := &timeseries.Series{Name: t.series.Name, Start: t.series.Start, Step: t.series.Step}
		rounds := e.sz.driveRounds
		if most := (t.series.Len() - t.trainEnd) / h; rounds > most {
			rounds = most
		}

		// Forecast and optimize on their own, over the same rounds the
		// planner sees below. The planner shares the forecaster; its
		// first warm call notices the history no longer extends and
		// rebuilds, exactly as after a restart.
		for r := 0; r < rounds; r++ {
			view.Values = t.series.Values[:t.trainEnd+r*h]
			var fan *forecast.QuantileForecast
			tr.countAllocs("forecast.predict", r == rounds-1, func() {
				s0 := tr.begin()
				fan, err = predictWarm(t.qf, view, h, levels)
				tr.end("forecast.predict", k, s0, 1)
			})
			if err != nil {
				return nil, fmt.Errorf("%s: predict at round %d: %w", t.id, r, err)
			}
			for j := range path {
				path[j] = fan.Values[j][0]
			}
			s0 := tr.begin()
			optBuf, err = optimize.PlanInto(path, theta, optBuf)
			tr.end("optimize.plan", k, s0, 1)
			if err != nil {
				return nil, err
			}
		}

		// The tenant's own copies of every stateful layer.
		now := t.series.TimeAt(t.trainEnd)
		clock := func() time.Time { return now }
		wake := &scaler.WakeGuard{Tenant: t.id, Clock: clock}
		plant, err := cluster.NewServerless(cluster.ServerlessConfig{WakeSeconds: 30, StepSeconds: t.series.Step.Seconds(), WakeCost: 2})
		if err != nil {
			return nil, err
		}
		var cal *cluster.Calibration
		sketch := obs.NewSketch(obs.DefaultSketchAlpha)
		breaker := &scaler.Breaker{}
		mgr, err := persist.NewTenantManager(stateDir, t.id, persist.DefaultRetain)
		if err != nil {
			return nil, err
		}

		passStart := time.Now()
		for r := 0; r < rounds; r++ {
			origin := t.trainEnd + r*h
			now = t.series.TimeAt(origin)
			view.Values = t.series.Values[:origin]
			if tr != nil {
				tr.round = k*e.sz.driveRounds + r
			}
			roundStart := tr.begin()

			var plan []int
			tr.countAllocs("scaler.plan", r == rounds-1, func() {
				s0 := tr.begin()
				plan, err = scaler.PlanRound(t.strat, view, h, planBuf)
				tr.end("scaler.plan", k, s0, 1)
			})
			if err != nil {
				return nil, fmt.Errorf("%s: plan at round %d: %w", t.id, r, err)
			}
			planBuf = plan

			// cluster: apply the round's plan to the simulated deployment
			// and grade it, warm-up included.
			cl, err := cluster.New(cluster.DefaultConfig(), now, plan[0])
			if err != nil {
				return nil, err
			}
			realized := t.series.Slice(origin, origin+h)
			s0 := tr.begin()
			_, err = cl.Replay(realized, plan, theta)
			tr.end("cluster.apply", k, s0, 1)
			if err != nil {
				return nil, err
			}

			// Serverless path: park/wake hysteresis, then joint sizing
			// and the plant step for each admitted step.
			copy(shaped, plan)
			idle := view.Last(h).Max() <= theta/10
			s0 = tr.begin()
			wake.Shape(shaped, idle)
			tr.end("scaler.wakeguard_shape", k, s0, 1)
			s0 = tr.begin()
			for _, units := range shaped {
				if _, err := optimize.SizeDemand(units, sizes); err != nil {
					return nil, err
				}
			}
			tr.end("optimize.size_demand", k, s0, h)
			s0 = tr.begin()
			for j, units := range shaped {
				step := r*h + j
				out := plant.Step(units, cluster.WakeFault{
					StallSeconds: sched.WakeStallAt(step), Fail: sched.WakeFailAt(step), Partial: sched.PartialProvisionAt(step),
				})
				if out.WakeFailed {
					wake.OnWakeResult(false)
				}
				if out.WakeCompleted {
					wake.OnWakeResult(true)
				}
			}
			tr.end("cluster.serverless_step", k, s0, h)

			// Calibration and the health plane observe every graded step.
			var fan *forecast.QuantileForecast
			if fp, ok := t.strat.(scaler.FanProvider); ok {
				fan = fp.LastFan()
			}
			if fan != nil {
				if cal == nil {
					if cal, err = cluster.NewCalibration(fan.Levels, stepsPerDay); err != nil {
						return nil, err
					}
				}
				s0 = tr.begin()
				for j := 0; j < h; j++ {
					if err := cal.Observe(realized.At(j), fan.Step(j)); err != nil {
						return nil, err
					}
				}
				tr.end("cluster.calibration_observe", k, s0, h)
			}
			s0 = tr.begin()
			for j := 0; j < h; j++ {
				sketch.Observe(realized.At(j))
			}
			tr.end("obs.sketch_observe", k, s0, h)
			s0 = tr.begin()
			journal.RecordTenantAt(now, t.id, "bench", "drive round", map[string]float64{"round": float64(r)})
			tr.end("obs.journal_record", k, s0, 1)

			// persist: encode the tenant's control-loop image and commit it.
			if r%e.sz.checkpointEvery == 0 {
				s0 = tr.begin()
				st, err := checkpointState(t, cfg, origin+h, cal, breaker, plan[h-1])
				if err != nil {
					return nil, err
				}
				var frame bytes.Buffer
				if err := persist.Encode(&frame, st); err != nil {
					return nil, err
				}
				tr.end("persist.encode", k, s0, 1)
				res.checkpointBytes = frame.Len()
				w0 := time.Now()
				u0, k0 := threadCPU()
				s0 = tr.begin()
				if _, err := mgr.Write(st); err != nil {
					return nil, err
				}
				tr.end("persist.write", k, s0, 1)
				u1, k1 := threadCPU()
				res.writes++
				res.writeUser += u1 - u0
				res.writeSys += k1 - k0
				res.busy -= time.Since(w0)
			}
			tr.end("round", k, roundStart, 1)
		}
		if tr != nil {
			tr.round = -1
		}
		res.busy += time.Since(passStart)

		s0 = tr.begin()
		st, _, err := mgr.Recover()
		tr.end("persist.recover", k, s0, 1)
		if err != nil || st == nil {
			return nil, fmt.Errorf("%s: recovering the drive's checkpoint: %v", t.id, err)
		}
	}

	return res, nil
}

// checkpointState assembles the persist image a control loop writes at
// a round boundary: model, calibration window, guard and breaker state.
func checkpointState(t *driveTenant, cfg fleet.Config, origin int, cal *cluster.Calibration, breaker *scaler.Breaker, prevAlloc int) (*persist.State, error) {
	st := &persist.State{
		SavedAt: t.series.TimeAt(origin - 1),
		Fingerprint: persist.Fingerprint{
			Strategy: cfg.Strategy, Tenant: t.id, Dataset: t.series.Name, Seed: cfg.Seed,
			Theta: cfg.Theta, Horizon: cfg.Horizon, Tau: cfg.Tau, Tau2: cfg.Tau2,
		},
		Origin: origin, PrevAlloc: prevAlloc, ForecasterKind: t.qf.Name(),
	}
	sections := map[*[]byte]func(io.Writer) error{&st.Breaker: breaker.Save}
	if s, ok := t.qf.(forecast.Snapshotter); ok {
		sections[&st.Forecaster] = s.Save
	}
	if cal != nil {
		sections[&st.Calibration] = cal.Save
	}
	if g, ok := t.strat.(*scaler.Guard); ok {
		sections[&st.Guard] = g.Save
	}
	for dst, save := range sections {
		var b bytes.Buffer
		if err := save(&b); err != nil {
			return nil, fmt.Errorf("%s: encoding checkpoint section: %w", t.id, err)
		}
		*dst = b.Bytes()
	}
	return st, nil
}

// kernelSink keeps the kernel loops' results alive.
var kernelSink float64

// driveKernels times the kernels that have no per-tenant state: one
// LSTM step and one matrix-vector product at the default DeepAR
// dimensions (input 5, hidden 32), and the worker pool's dispatch cost
// over no-op tasks.
func driveKernels(e *env, tr *tracer) {
	const in = 5 // DeepAR step input: lagged value + four calendar features
	hidden := forecast.DefaultDeepARConfig().Hidden
	rng := rand.New(rand.NewSource(e.seed))
	cell := nn.NewLSTMCell("bench", in, hidden, rng)
	x := make([]float64, in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Each kernel runs as kernelBatches spans on rows of their own, so
	// the row is a median and one descheduled batch cannot move it.
	iters := e.sz.kernelIters / kernelBatches
	scratch := nn.NewScratch()
	state := cell.NewLSTMState()
	dst := make([]float64, 4*hidden)
	for b := 0; b < kernelBatches; b++ {
		s0 := tr.begin()
		for i := 0; i < iters; i++ {
			next, _ := cell.StepScratch(scratch, x, state)
			copy(state.H, next.H)
			copy(state.C, next.C)
			scratch.Reset()
		}
		tr.end("nn.lstm_step", b, s0, iters)

		s0 = tr.begin()
		for i := 0; i < iters; i++ {
			cell.Wh.Value.MulVecInto(state.H, dst)
		}
		tr.end("nn.mulvec", b, s0, iters)

		s0 = tr.begin()
		parallel.ForEachWorker(e.workers, iters, func(_, _ int) {})
		tr.end("parallel.dispatch", b, s0, iters)
	}
	kernelSink += state.H[0] + dst[0]
}

const kernelBatches = 16

// restartResult is what the restart drive measured.
type restartResult struct {
	warmRestartPerTenant float64 // CPU seconds
	commitsPerRound      float64
}

// driveRestart checkpoints a small durable fleet of the workload's
// flavour for two rounds and rebuilds it from the populated state dir:
// the warm-restart cost per tenant and the checkpoint files committed
// per fleet round, reported on every workload.
func driveRestart(e *env, cfg fleet.Config) (*restartResult, error) {
	dir, err := newStateDir(e.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.Tenants > e.sz.driveTenants {
		if cfg.PoolNodes > 0 {
			cfg.PoolNodes = cfg.PoolNodes * e.sz.driveTenants / cfg.Tenants
		}
		cfg.Tenants = e.sz.driveTenants
	}
	cfg.StateDir, cfg.MaxRounds = dir, 2
	ctrl, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	commits0 := persist.CheckpointWrites()
	rep, err := ctrl.Run(context.Background())
	if err != nil {
		return nil, err
	}
	res := &restartResult{commitsPerRound: (persist.CheckpointWrites() - commits0) / float64(rep.Rounds)}
	s0 := sample()
	ctrl, err = fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	res.warmRestartPerTenant = sample().since(s0).cpu() / float64(cfg.Tenants)
	for _, t := range ctrl.Tenants() {
		if t.Rounds() != rep.Rounds {
			return nil, fmt.Errorf("restart drive: %s resumed at round %d, want %d", t.ID, t.Rounds(), rep.Rounds)
		}
	}
	return res, nil
}
