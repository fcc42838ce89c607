// Command tracegen generates the synthetic cluster traces used throughout
// the repository and writes them as CSV, or prints summary statistics.
//
// Usage:
//
//	tracegen -dataset alibaba -seed 42 -days 28 -out alibaba.csv
//	tracegen -dataset google -summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode reports a run error on stderr and maps it to the process exit
// status: 0 on success (and -h), 2 for a command line that cannot run,
// 1 for a run that failed.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2 // the problem and the usage are already on stderr
	}
	fmt.Fprintf(stderr, "tracegen: %v\n", err)
	return 1
}

// errUsage marks a command line that cannot run.
var errUsage = errors.New("invalid command line")

// run is the whole command: it parses args, generates the trace and
// writes the CSV (to stdout or -out) or the -summary to stdout; logs go to
// stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset = fs.String("dataset", "alibaba", "trace style: alibaba or google")
		seed    = fs.Int64("seed", 42, "generation seed")
		days    = fs.Int("days", 28, "trace length in days")
		units   = fs.Int("units", 64, "machines/tasks to sample and aggregate")
		out     = fs.String("out", "", "CSV output path (default stdout)")
		summary = fs.Bool("summary", false, "print per-resource summary statistics instead of CSV")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *days < 1 || *units < 1 {
		fmt.Fprintf(stderr, "tracegen: -days and -units must be positive, got %d and %d\n", *days, *units)
		fs.Usage()
		return errUsage
	}

	var cfg trace.Config
	switch *dataset {
	case "alibaba":
		cfg = trace.AlibabaStyle(*seed)
	case "google":
		cfg = trace.GoogleStyle(*seed)
	default:
		fmt.Fprintf(stderr, "tracegen: unknown dataset %q (want alibaba or google)\n", *dataset)
		fs.Usage()
		return errUsage
	}
	cfg.Days = *days
	cfg.Units = *units

	tr, err := trace.Generate(cfg)
	if err != nil {
		return err
	}
	if *summary {
		printSummary(stdout, tr)
		return nil
	}
	if *out == "" {
		return tr.WriteCSV(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = tr.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tracegen: wrote %s trace (%d days, %d units) to %s\n", *dataset, *days, *units, *out)
	return nil
}

func printSummary(w io.Writer, tr *trace.Trace) {
	for _, res := range []trace.Resource{trace.CPU, trace.Memory, trace.Disk} {
		s, err := tr.Series(res)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%-20s steps=%d step=%v mean=%.1f std=%.1f min=%.1f p50=%.1f p95=%.1f max=%.1f\n",
			s.Name, s.Len(), s.Step, s.Mean(), s.Std(), s.Min(),
			s.Quantile(0.5), s.Quantile(0.95), s.Max())
		maxLag := min(s.Len()/3, 2*168*6) // at most two weeks at 10-minute steps
		vol, err := timeseries.Characterize(s, maxLag)
		if err != nil {
			fmt.Fprintf(w, "%-20s (characterization failed: %v)\n", "", err)
			continue
		}
		fmt.Fprintf(w, "%-20s period=%d (strength %.2f) residualCV=%.3f spikeRate=%.4f\n",
			"", vol.Period, vol.SeasonalStrength, vol.ResidualCV, vol.SpikeRate)
	}
}
