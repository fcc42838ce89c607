// Command experiment regenerates the tables and figures of the paper's
// evaluation. Each artifact has an id; "all" runs everything.
//
// Usage:
//
//	experiment -id table1            # forecaster comparison (Table I)
//	experiment -id fig9 -quick       # scaler comparison, fast settings
//	experiment -id all               # the full evaluation
//	experiment -id fig9 -decisions   # plus the per-round decision audit
//	experiment -id fig9 -trace-out t.json  # plus a Chrome trace of the run
//	experiment -chaos smoke          # guarded-loop resilience, smoke profile
//	experiment -chaos matrix         # fault class x strategy resilience matrix
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"robustscale/internal/experiment"
	"robustscale/internal/fleet"
	"robustscale/internal/obs"
)

var runners = map[string]func(io.Writer, *experiment.Zoo) error{
	"table1": runTable1,
	"table2": runTable2,
	"table3": runTable3,
	"fig5":   runFigure5,
	"fig6":   runFigure6,
	"fig7":   runFigure7,
	"fig8":   runFigure8,
	"fig9":   runFigure9,
	"fig10":  runFigure10,
	"fig11":  runFigure11,
	"fig12":  runFigure12,
}

// order fixes the "all" execution sequence.
var order = []string{
	"table1", "fig6", "fig7", "fig8",
	"fig9", "fig10", "fig11", "fig12",
	"table2", "table3", "fig5",
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(exitCode(run(ctx, os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode reports a run error on stderr and maps it to the process exit
// status: 0 on success (and -h), 2 for a command line that cannot run, 1
// for a run that failed.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2 // the problem and the usage are already on stderr
	}
	fmt.Fprintf(stderr, "experiment: %v\n", err)
	return 1
}

// errUsage marks a command line that cannot run.
var errUsage = errors.New("invalid command line")

// run is the whole command: it parses args and regenerates the requested
// artifacts (or the -chaos / -fleet-chaos resilience matrix) on stdout;
// logs go to stderr. A cancelled ctx stops an "all" run between
// artifacts. Every run starts from an empty decision store, so the
// matrices' degraded-decision counts are this run's.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	logf := log.New(stderr, "", 0).Printf
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id        = fs.String("id", "all", "artifact to regenerate: table1|table2|table3|fig5..fig12|all")
		quick     = fs.Bool("quick", false, "use reduced training budgets")
		seed      = fs.Int64("seed", 42, "experiment seed")
		tenant    = fs.String("tenant", obs.DefaultTenant, "tenant id stamped onto decision records and tenant-scoped counters")
		metrics   = fs.Bool("metrics", false, "dump accumulated Prometheus metrics to stdout after the run")
		decisions = fs.Bool("decisions", false, "print the retained per-round scaling decisions after the run")
		traceOut  = fs.String("trace-out", "", "write a Chrome trace-event JSON file here after the run (implies tracing)")
		chaosProf = fs.String("chaos", "", "run the guarded-loop resilience matrix under this chaos preset (none|forecast|telemetry|apply|node-kill|all|smoke) or 'matrix' for the full sweep")
		chaosJSON = fs.String("chaos-json", "", "with -chaos or -fleet-chaos, also write the resilience report as JSON here")

		fleetChaos      = fs.String("fleet-chaos", "", "run the FLEET resilience matrix under this chaos preset (zone-outage|pool-collapse|admission-reject|fleet|...) or 'matrix' for the standard sweep; reports blast radius per row")
		fleetTenants    = fs.Int("fleet-tenants", 8, "fleet size for -fleet-chaos")
		fleetPool       = fs.Int("fleet-pool", 0, "shared capacity pool for -fleet-chaos (0 = no pool)")
		fleetServerless = fs.Bool("fleet-serverless", false, "run -fleet-chaos in serverless mode; 'matrix' adds the wake-fault rows (wake, wake-storm) and the table gains wake-latency columns")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	ids := []string{*id}
	if *id == "all" {
		ids = order
	} else if runners[*id] == nil {
		fmt.Fprintf(stderr, "experiment: unknown id %q (want %s or all)\n", *id, strings.Join(order, "|"))
		fs.Usage()
		return errUsage
	}

	obs.DefaultDecisions.Reset()
	obs.DefaultTracer.SetEnabled(*traceOut != "")
	obs.DefaultDecisions.SetEnabled(*decisions)

	cfg := experiment.DefaultConfig()
	if *quick {
		cfg = experiment.QuickConfig()
	}
	cfg.Seed = *seed
	cfg.Tenant = *tenant

	z, err := experiment.NewZoo(cfg)
	if err != nil {
		return err
	}

	switch {
	case *fleetChaos != "":
		return runFleetChaos(stdout, logf, *fleetChaos, *fleetTenants, *fleetPool, *fleetServerless, *seed, *chaosJSON)
	case *chaosProf != "":
		return runChaos(stdout, logf, z, *chaosProf, *chaosJSON)
	}

	for _, one := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		if err := runners[one](stdout, z); err != nil {
			return fmt.Errorf("%s: %w", one, err)
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n", one, time.Since(start).Round(time.Millisecond))
	}
	if *metrics {
		// The same instruments the daemon serves at /metrics, dumped once
		// for quick offline runs: stage latencies, training counters,
		// scaling actions.
		fmt.Fprintln(stdout, "\n# --- accumulated metrics (Prometheus text format) ---")
		if err := obs.Default.WritePrometheus(stdout); err != nil {
			return fmt.Errorf("metrics dump: %w", err)
		}
	}
	if *decisions {
		// The same records the daemon serves at /decisions: one audit line
		// per planning round the bounded store still retains.
		store := obs.DefaultDecisions
		fmt.Fprintf(stdout, "\n# --- scaling decisions (%d retained of %d recorded, %d dropped) ---\n",
			store.Len(), store.Total(), store.Dropped())
		for _, d := range store.Decisions() {
			fmt.Fprintln(stdout, d.Explain(d.Step))
		}
	}
	if *traceOut != "" {
		if err := obs.DefaultTracer.WriteChromeFile(*traceOut); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		logf("experiment: wrote %d spans (%d dropped) to %s",
			obs.DefaultTracer.Len(), obs.DefaultTracer.Dropped(), *traceOut)
	}
	return nil
}

// runChaos drives the guarded-loop resilience matrix. Decision capture
// is forced on so degraded rounds leave auditable records — the CI smoke
// job asserts they exist.
func runChaos(w io.Writer, logf func(string, ...any), z *experiment.Zoo, profile, jsonPath string) error {
	obs.DefaultDecisions.SetEnabled(true)
	experiment.Header(w, fmt.Sprintf("Resilience matrix (alibaba, chaos=%s)", profile))
	start := time.Now()
	rep, err := experiment.Resilience(z, experiment.Alibaba, profile)
	if err != nil {
		return err
	}
	if err := experiment.RenderResilience(w, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "[chaos %s done in %v]\n", profile, time.Since(start).Round(time.Millisecond))
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiment.WriteResilienceJSON(f, rep); err != nil {
			return err
		}
		logf("experiment: wrote resilience report to %s", jsonPath)
	}
	return nil
}

// runFleetChaos drives the fleet-scale resilience matrix: one fault-free
// baseline plus one pooled fleet run per chaos preset, each row carrying
// the blast radius measured against the baseline's per-tenant records.
func runFleetChaos(w io.Writer, logf func(string, ...any), profile string, tenants, pool int, serverless bool, seed int64, jsonPath string) error {
	presets := []string{profile}
	if profile == "matrix" {
		presets = []string{"zone-outage", "pool-collapse", "admission-reject", "fleet"}
		if serverless {
			// Wake faults only mean something when tenants cross the zero
			// boundary; the default matrix is unchanged otherwise.
			presets = append(presets, "wake", "wake-storm")
		}
	}
	cfg := fleet.DefaultConfig(tenants)
	cfg.Days = 3
	cfg.Seed = seed
	cfg.PoolNodes = pool
	cfg.Serverless = serverless
	if serverless {
		// The serverless archetypes carry small per-tenant workloads; the
		// default threshold would pin every tenant at one node and no
		// tenant would ever park or size up.
		cfg.Days = 4
		cfg.Theta = 8
	}
	experiment.Header(w, fmt.Sprintf("Fleet resilience matrix (%d tenants, pool=%d, serverless=%v)", tenants, pool, serverless))
	start := time.Now()
	baseline, cells, err := fleet.ResilienceMatrix(cfg, presets)
	if err != nil {
		return err
	}
	wakeCols := ""
	if serverless {
		wakeCols = fmt.Sprintf(" %9s %9s %7s", "wakefail", "wake p99", "wakeSLO")
	}
	fmt.Fprintf(w, "%-18s %10s %10s %10s %8s %10s %12s%s\n",
		"preset", "violations", "cost", "shed", "quaran", "blast", "affected/by", wakeCols)
	fmt.Fprintf(w, "%-18s %10d %10d %10s %8s %10s %12s\n",
		"(baseline)", baseline.Violations, baseline.CostNodeSteps, "-", "-", "-", "-")
	for _, c := range cells {
		row := fmt.Sprintf("%-18s %10d %10d %10d %8d %9.4f %9d/%d",
			c.Preset, c.Violations, c.CostNodeSteps, c.ShedNodes, c.Quarantines,
			c.BlastRadius.Radius, c.BlastRadius.Affected, c.BlastRadius.Bystanders)
		if serverless {
			row += fmt.Sprintf(" %9d %8.0fs %7v", c.WakeFailures, c.WakeP99Seconds, c.WakeSLOMet)
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintf(w, "[fleet-chaos %s done in %v]\n", profile, time.Since(start).Round(time.Millisecond))
	if jsonPath != "" {
		out := struct {
			Baseline *fleet.Report      `json:"baseline"`
			Cells    []fleet.MatrixCell `json:"cells"`
		}{baseline, cells}
		enc, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		logf("experiment: wrote fleet resilience report to %s", jsonPath)
	}
	return nil
}

// render returns what prints an artifact's rows with r, or passes on the
// error computing them returned; render(w, r)(experiment.X(z)) is one
// artifact.
func render[T any](w io.Writer, r func(io.Writer, T) error) func(T, error) error {
	return func(rows T, err error) error {
		if err != nil {
			return err
		}
		return r(w, rows)
	}
}

func runTable1(w io.Writer, z *experiment.Zoo) error {
	experiment.Header(w, "Table I: forecaster comparison")
	return render(w, experiment.RenderTable1)(experiment.Table1(z))
}

func runTable2(w io.Writer, z *experiment.Zoo) error {
	experiment.Header(w, "Table II: computation overhead")
	return render(w, experiment.RenderTable2)(experiment.Table2(z))
}

func runTable3(w io.Writer, z *experiment.Zoo) error {
	experiment.Header(w, "Table III: overhead breakdown")
	return render(w, experiment.RenderTable3)(experiment.Table3(z))
}

func runFigure5(w io.Writer, z *experiment.Zoo) error {
	experiment.Header(w, "Figure 5: scale-out warm-up vs checkpoint size")
	return render(w, experiment.RenderFigure5)(experiment.Figure5(time.Now()))
}

func runFigure6(w io.Writer, z *experiment.Zoo) error {
	experiment.Header(w, "Figure 6: uncertainty vs accuracy (DeepAR, Google)")
	points, corrMSE, corrQL, err := experiment.Figure6(z, experiment.Google, experiment.ModelDeepAR)
	if err != nil {
		return err
	}
	return experiment.RenderFigure6(w, points, corrMSE, corrQL)
}

func runFigure7(w io.Writer, z *experiment.Zoo) error {
	experiment.Header(w, "Figure 7: prediction intervals (Alibaba)")
	return render(w, experiment.RenderFigure7)(experiment.Figure7(z, experiment.Alibaba))
}

func runFigure8(w io.Writer, z *experiment.Zoo) error {
	for _, ds := range []experiment.DatasetName{experiment.Alibaba, experiment.Google} {
		experiment.Header(w, fmt.Sprintf("Figure 8: horizon sweep (%s)", ds))
		if err := render(w, experiment.RenderFigure8)(experiment.Figure8(z, ds)); err != nil {
			return err
		}
	}
	return nil
}

func runFigure9(w io.Writer, z *experiment.Zoo) error {
	for _, ds := range []experiment.DatasetName{experiment.Alibaba, experiment.Google} {
		experiment.Header(w, fmt.Sprintf("Figure 9: under-provisioning comparison (%s)", ds))
		if err := render(w, experiment.RenderFigure9)(experiment.Figure9(z, ds)); err != nil {
			return err
		}
	}
	return nil
}

func runFigure10(w io.Writer, z *experiment.Zoo) error {
	for _, ds := range []experiment.DatasetName{experiment.Alibaba, experiment.Google} {
		experiment.Header(w, fmt.Sprintf("Figure 10: quantile-level trade-off (%s, TFT)", ds))
		if err := render(w, experiment.RenderFigure10)(experiment.Figure10(z, ds, experiment.ModelTFT)); err != nil {
			return err
		}
	}
	return nil
}

func runFigure11(w io.Writer, z *experiment.Zoo) error {
	for _, model := range []experiment.ModelName{experiment.ModelDeepAR, experiment.ModelTFT} {
		experiment.Header(w, fmt.Sprintf("Figure 11: adaptive heatmap (Google, %s)", model))
		if err := render(w, experiment.RenderFigure11)(experiment.Figure11(z, experiment.Google, model)); err != nil {
			return err
		}
	}
	return nil
}

func runFigure12(w io.Writer, z *experiment.Zoo) error {
	experiment.Header(w, "Figure 12: uncertainty-threshold sensitivity (Google, TFT)")
	return render(w, experiment.RenderFigure12)(experiment.Figure12(z, experiment.Google, experiment.ModelTFT, 0.7, 0.95))
}
