//go:build linux

// Command bench is the repository's benchmark: CPU, heap and disk cost
// per tenant-round on four workloads, with a traced pass that breaks the
// cost down by layer. BENCHMARK.json at the repository root names the
// command, the workloads and the metrics; README.md in this directory
// says why each exists.
//
//	go run ./bench -workload fleet-replay              # end-to-end metrics
//	go run ./bench -workload fleet-durable -trace 1    # per-layer metrics + Chrome trace
//	go run ./bench -workload paper-pipeline -seed 7    # any seed passes the self-checks
//	go run ./bench -selfcheck                          # A/A: two sets of runs per workload must agree within bounds
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
// The exit code is non-zero when a self-check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"

	"robustscale/internal/obs"
)

// result is the last line of a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed      = flag.Int64("seed", 42, "generator seed; the program under test receives nothing else from the generator")
		seconds   = flag.Int("seconds", 8, "keep adding repetitions (at least five, at most eight) until the measured regions add up to this much wall time")
		traced    = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics and a Chrome trace file) instead of the end-to-end one")
		traceOut  = flag.String("trace-out", "", "where -trace 1 writes the Chrome trace (default "+tempRoot+"/trace-<workload>.json)")
		selfcheck = flag.Bool("selfcheck", false, "A/A test: run every workload in two interleaved sets of three runs and fail unless the sets' medians agree within each end-to-end bound")
	)
	flag.Parse()
	if *selfcheck {
		if err := runSelfcheck(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), " | "))
		os.Exit(2)
	}
	e := &env{seed: *seed, sz: fullSizes(), workers: pinWorkers(), root: tempRoot}
	var res *result
	var err error
	if *traced != 0 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(tempRoot, "trace-"+w.name+".json")
		}
		res, err = runTraced(w, e, out)
	} else {
		res, err = runEndToEnd(w, e, float64(*seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// A run keeps adding repetitions until their measured regions fill
// -seconds, within these limits.
const maxReps = 8

// runner runs a workload's repetitions, each in a resident-set window of
// its own.
type runner struct {
	w *workload
	e *env
	// prepared is the usage of the workload's once-per-run set-up, when
	// it has one.
	prepared *delta
}

// newRunner runs the workload's prepare step, if it has one.
func newRunner(w *workload, e *env) (*runner, error) {
	r := &runner{w: w, e: e}
	if w.prepare == nil {
		return r, nil
	}
	debug.FreeOSMemory()
	setup, err := w.prepare(e)
	if err != nil {
		return nil, err
	}
	r.prepared = &setup
	return r, nil
}

// rep runs one repetition. It starts from a collected heap whose free
// pages went back to the OS, as a fresh process would, so no rep
// inherits the previous one's garbage or resident set.
func (r *runner) rep() (*repResult, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	res, err := r.w.rep(r.e)
	if err != nil {
		return nil, err
	}
	res.peakRSSMB = peakRSSMB()
	if r.prepared != nil {
		res.setup = *r.prepared
	}
	return res, nil
}

// runEndToEnd executes repetitions of the workload on identically seeded
// inputs and reports the per-metric median with the rep spread.
func runEndToEnd(w *workload, e *env, seconds float64) (*result, error) {
	obs.DefaultDecisions.SetEnabled(false)
	fmt.Printf("# %s seed=%d workers=%d: %s\n", w.name, e.seed, e.workers, w.why)
	run, err := newRunner(w, e)
	if err != nil {
		return nil, err
	}
	var reps []*repResult
	measured := 0.0
	for len(reps) < e.sz.minReps || (measured < seconds && len(reps) < maxReps) {
		r, err := run.rep()
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		measured += r.region.wall
		// The stolen share is context for a reader, never an input: on the
		// shared sandbox CPU time itself runs 10-30 % high for minutes
		// while the hypervisor withholds CPU from the VM.
		fmt.Printf("# rep %d: set-up %.3f s CPU, region %.3f s user + %.3f s sys CPU in %.3f s wall (%.1f%% of its CPU stolen), peak %.1f MiB, %d tenant-rounds, hash %s\n",
			len(reps), r.setup.cpu(), r.region.user, r.region.sys, r.region.wall, 100*r.region.stolen(), r.peakRSSMB, r.tenantRounds, r.hash)
	}
	res := &result{Metrics: map[string]value{}}
	var problems []string
	for i, r := range reps {
		res.Attempted += r.tenantRounds
		res.Failed += r.failed
		problems = append(problems, r.problems...)
		if r.hash != reps[0].hash {
			res.Failed++
			problems = append(problems, fmt.Sprintf("rep %d hash %s differs from rep 1 hash %s", i+1, r.hash, reps[0].hash))
		}
	}
	if w.verify != nil {
		want, err := w.verify(e)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		if want != reps[0].hash {
			res.Failed++
			problems = append(problems, fmt.Sprintf("restarted hash %s differs from the uninterrupted run's %s", reps[0].hash, want))
		}
	}

	per := map[string]func(*repResult) float64{
		"setup_s":                      func(r *repResult) float64 { return r.setup.cpu() },
		"user_cpu_us_per_tenant_round": func(r *repResult) float64 { return 1e6 * r.region.user / float64(r.tenantRounds) },
		"mallocs_per_tenant_round":     func(r *repResult) float64 { return float64(r.region.mallocs) / float64(r.tenantRounds) },
		"live_heap_kb_per_tenant":      func(r *repResult) float64 { return float64(r.heap) / 1024 / float64(r.tenants) },
		"peak_rss_mb":                  func(r *repResult) float64 { return r.peakRSSMB },
	}
	for _, m := range endToEnd {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = per[m.name](r)
		}
		res.Metrics[m.name] = value{median(xs), m.unit}
		fmt.Printf("%-40s %14.4f %-6s (median of %d reps, spread %.2f%%, regression bound %.0f%%)\n",
			m.name, res.Metrics[m.name].Value, m.unit, len(reps), spreadPct(xs), 100*m.bound)
	}
	return finish(res, problems), nil
}

// finish prints failed self-checks and settles the verdict.
func finish(res *result, problems []string) *result {
	for _, p := range problems {
		fmt.Printf("# SELF-CHECK FAILED: %s\n", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Printf("# SELF-CHECK FAILED: %s is %v\n", name, v.Value)
			res.Correct = false
		}
	}
	return res
}

// runTraced is the traced pass: one plain rep and one with decision
// capture on give the whole-call rows; the layer drive (once without
// spans, once with) gives the layer rows and the tracing overhead; the
// restart drive gives the warm-restart rows.
func runTraced(w *workload, e *env, traceOut string) (*result, error) {
	fmt.Printf("# %s seed=%d workers=%d traced pass\n", w.name, e.seed, e.workers)
	obs.DefaultDecisions.SetEnabled(false)
	run, err := newRunner(w, e)
	if err != nil {
		return nil, err
	}
	plain, err := run.rep()
	if err != nil {
		return nil, err
	}
	obs.DefaultDecisions.SetEnabled(true)
	withDecisions, err := run.rep()
	obs.DefaultDecisions.SetEnabled(false)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: plain.tenantRounds + withDecisions.tenantRounds,
		Failed:    plain.failed + withDecisions.failed,
		Metrics:   map[string]value{},
	}
	problems := append(plain.problems, withDecisions.problems...)
	if plain.hash != withDecisions.hash {
		res.Failed++
		problems = append(problems, fmt.Sprintf("decision capture changed the hash: %s vs %s", withDecisions.hash, plain.hash))
	}

	cfg := w.driveConfig(e)
	// The drive's tenants are built once, under the tracer; the round
	// passes then run over them without spans and with.
	tr := newTracer()
	var tenants []*driveTenant
	if w.fleet {
		tenants, err = fleetTenants(cfg, e.sz.driveTenants, tr)
	} else {
		tenants, err = paperTenants(e, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("building the layer drive: %w", err)
	}
	// A discarded first pass pays the cold costs (page faults, forecaster
	// rebuilds), so the untraced/traced pair differs only by the spans.
	if _, err := driveLayers(e, cfg, tenants, nil); err != nil {
		return nil, fmt.Errorf("layer drive: %w", err)
	}
	untraced, err := driveLayers(e, cfg, tenants, nil)
	if err != nil {
		return nil, fmt.Errorf("layer drive: %w", err)
	}
	d, err := driveLayers(e, cfg, tenants, tr)
	if err != nil {
		return nil, fmt.Errorf("traced layer drive: %w", err)
	}
	driveKernels(e, tr)
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChromeFile(traceOut); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.spans), traceOut)
	restart, err := driveRestart(e, cfg)
	if err != nil {
		return nil, err
	}

	us := func(name string) float64 { return float64(tr.perCall(name)) / 1e3 }
	ns := func(name string) float64 { return float64(tr.perCall(name)) }
	perRound := func(r *repResult, seconds float64) float64 { return 1e6 * seconds / float64(r.tenantRounds) }
	userPerRound := perRound(plain, plain.region.user)
	rows := map[string]float64{
		"trace.generate_us_per_tenant":             us("trace.generate"),
		"forecast.fit_us_per_tenant":               us("forecast.fit"),
		"forecast.predict_us_per_round":            us("forecast.predict"),
		"forecast.predict_allocs_per_round":        tr.allocsPerCall("forecast.predict"),
		"nn.lstm_step_ns":                          ns("nn.lstm_step"),
		"nn.mulvec_ns":                             ns("nn.mulvec"),
		"optimize.plan_ns_per_round":               ns("optimize.plan"),
		"optimize.size_demand_ns":                  ns("optimize.size_demand"),
		"scaler.plan_us_per_round":                 us("scaler.plan"),
		"scaler.plan_allocs_per_round":             tr.allocsPerCall("scaler.plan"),
		"scaler.wakeguard_shape_ns":                ns("scaler.wakeguard_shape"),
		"cluster.apply_us_per_round":               us("cluster.apply"),
		"cluster.serverless_step_ns":               ns("cluster.serverless_step"),
		"cluster.calibration_observe_ns":           ns("cluster.calibration_observe"),
		"cluster.violation_rate_pct":               100 * float64(plain.violations) / float64(plain.steps),
		"cluster.cost_node_steps_per_tenant_round": float64(plain.cost) / float64(plain.tenantRounds),
		"cluster.holds":                            float64(plain.holds),
		"persist.encode_us":                        us("persist.encode"),
		"persist.write_user_us":                    1e6 * d.writeUser / float64(d.writes),
		"persist.write_wall_us":                    us("persist.write"),
		"persist.recover_us":                       us("persist.recover"),
		"persist.bytes_per_checkpoint":             float64(d.checkpointBytes),
		"persist.commits_per_round":                restart.commitsPerRound,
		"persist.sys_cpu_us_per_tenant_round":      1e6 * d.writeSys / float64(d.writes),
		"obs.sketch_observe_ns":                    ns("obs.sketch_observe"),
		"obs.journal_record_ns":                    ns("obs.journal_record"),
		"obs.decisions_on_overhead_pct":            100 * (perRound(withDecisions, withDecisions.region.user)/userPerRound - 1),
		"parallel.dispatch_ns_per_task":            ns("parallel.dispatch"),
		"chaos.schedule_build_us_per_tenant":       us("chaos.schedule_build"),
		"chaos.faults_injected":                    plain.faults,
		"fleet.new_cpu_s":                          plain.setup.cpu(),
		"fleet.run_cpu_s":                          plain.region.cpu(),
		"fleet.run_wall_s":                         plain.region.wall,
		"fleet.sys_cpu_us_per_tenant_round":        perRound(plain, plain.region.sys),
		"fleet.alloc_bytes_per_tenant_round":       float64(plain.region.bytes) / float64(plain.tenantRounds),
		"fleet.gc_cycles":                          float64(plain.region.gcs),
		"fleet.warm_restart_us_per_tenant":         1e6 * restart.warmRestartPerTenant,
		"bench.trace_overhead_pct":                 100 * (d.busy.Seconds()/untraced.busy.Seconds() - 1),
	}
	// What the layer rows explain of a tenant-round's user CPU; the rest
	// is the driver's own work (admission, report fold, barriers).
	h := float64(cfg.Horizon)
	attributed := rows["scaler.plan_us_per_round"]
	if w.fleet {
		attributed += (h*rows["cluster.calibration_observe_ns"] + rows["obs.sketch_observe_ns"]) / 1e3
	}
	if w.serverless {
		attributed += (rows["scaler.wakeguard_shape_ns"] + h*(rows["optimize.size_demand_ns"]+rows["cluster.serverless_step_ns"])) / 1e3
	}
	if w.durable {
		attributed += plain.commits / float64(plain.tenantRounds) * (rows["persist.encode_us"] + rows["persist.write_user_us"])
	}
	rows["fleet.unattributed_us_per_tenant_round"] = userPerRound - attributed

	for _, m := range perLayer {
		v, ok := rows[m.name]
		if !ok {
			return nil, fmt.Errorf("traced pass produced no %s", m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Printf("%-42s %16.4f %s\n", m.name, v, m.unit)
	}
	return finish(res, problems), nil
}

// selfcheckRuns is how many runs make one set of the A/A test.
const selfcheckRuns = 3

// runSelfcheck is the A/A test: every workload is run in two sets of
// selfcheckRuns, alternating between the sets so a slow spell of the box
// lands on both, each run in its own process exactly as the driver would
// start it. The median of each end-to-end metric over set B must be
// within its bound of the median over set A.
func runSelfcheck(seed int64, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failures []string
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for i := 0; i < 2*selfcheckRuns; i++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: parsing result line: %w", w.name, i+1, err)
			}
			if sets[i%2] == nil {
				sets[i%2] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		for _, m := range endToEnd {
			a, b := median(sets[0][m.name]), median(sets[1][m.name])
			verdict := "ok"
			if a == 0 || math.Abs(b/a-1) > m.bound {
				verdict = "DISAGREE"
				failures = append(failures, w.name+"/"+m.name)
			}
			fmt.Printf("%-24s %-30s A=%.4f B=%.4f median B/A=%.4f (base A=%.4f %s, bound %.0f%%) %s\n",
				w.name, m.name, sets[0][m.name], sets[1][m.name], b/a, a, m.unit, 100*m.bound, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("A/A sets disagree beyond the bound on: %s", strings.Join(failures, ", "))
	}
	return nil
}
