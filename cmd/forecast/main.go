// Command forecast trains, persists and applies workload forecasters from
// the command line.
//
// Train a model on a trace (generated or CSV) and save it:
//
//	forecast -mode train -model tft -dataset alibaba -out tft.model
//	forecast -mode train -model deepar -input trace.csv -resource cpu -out deepar.model
//
// Load a saved model and print quantile forecasts:
//
//	forecast -mode predict -model tft -in tft.model -dataset alibaba -horizon 72 -levels 0.5,0.9
//
// Backtest a model over the tail of a trace, or grid-search
// hyperparameters (the stdlib replacement for the paper's Optuna step):
//
//	forecast -mode backtest -model deepar -dataset google
//	forecast -mode tune -model tft -dataset alibaba
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"robustscale/internal/fleet"
	"robustscale/internal/forecast"
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
	fmt.Fprintf(stderr, "forecast: %v\n", err)
	return 1
}

// errUsage marks a command line that cannot run.
var errUsage = errors.New("invalid command line")

// job is one parsed command line: the model to build, the series it runs
// on, and where its output and logs go.
type job struct {
	model                            string
	series                           *timeseries.Series
	in, out                          string
	context, horizon, epochs, period int
	levels                           []float64
	stdout                           io.Writer
	logf                             func(string, ...any)
}

// modes maps -mode to what it does.
var modes = map[string]func(*job) error{"train": train, "predict": predict, "backtest": backtest, "tune": tune}

// model is what -model names: a forecaster that saves and loads.
type model interface {
	forecast.Forecaster
	forecast.Snapshotter
}

// models maps -model to an untrained instance; saved models must be loaded
// into an identically configured one, so predict builds through it too.
var models = map[string]func(j *job) model{
	"arima": func(j *job) model { return forecast.NewSeasonalARIMA(6, 0, 2, j.period) },
	"mlp": func(j *job) model {
		return forecast.NewMLP(forecast.MLPConfig{Context: j.context, Hidden: 48, Epochs: j.epochs, Seed: 1, MaxWindows: 192})
	},
	"deepar": func(j *job) model {
		return forecast.NewDeepAR(forecast.DeepARConfig{
			Context: j.context, Hidden: 32, Epochs: j.epochs, Seed: 1,
			MaxWindows: 160, Samples: 100, TrainHorizon: j.horizon,
		})
	},
	"tft": func(j *job) model {
		return forecast.NewTFT(forecast.TFTConfig{
			Context: j.context, Hidden: 32, Epochs: j.epochs, Seed: 1,
			MaxWindows: 160, TrainHorizon: j.horizon,
			Levels: forecast.ScalingLevels,
		})
	},
	"qb5000": func(j *job) model {
		return forecast.NewQB5000(forecast.QB5000Config{
			Context: j.context, Hidden: 24, Epochs: j.epochs, Seed: 1,
			MaxWindows: 160, TrainHorizon: j.horizon,
		})
	},
}

// run is the whole command: it parses args, loads the series and runs the
// mode, writing its table to stdout; logs go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("forecast", flag.ContinueOnError)
	fs.SetOutput(stderr)
	j := &job{stdout: stdout, logf: log.New(stderr, "", 0).Printf, levels: []float64{0.5, 0.7, 0.9}}
	var (
		mode     = fs.String("mode", "train", "train | predict | backtest | tune")
		dataset  = fs.String("dataset", "", "generate a trace: alibaba or google (alternative to -input)")
		seed     = fs.Int64("seed", 42, "trace seed when generating")
		input    = fs.String("input", "", "CSV trace path (written by tracegen)")
		resource = fs.String("resource", "cpu", "trace resource column")
	)
	fs.StringVar(&j.model, "model", "tft", "tft | deepar | mlp | arima | qb5000")
	fs.StringVar(&j.out, "out", "", "where to save the trained model")
	fs.StringVar(&j.in, "in", "", "saved model to load for predict")
	fleet.PositiveIntVar(fs, &j.horizon, "horizon", 72, "forecast horizon in `steps`")
	fleet.PositiveIntVar(fs, &j.context, "context", 72, "model context window in `steps`")
	fleet.PositiveIntVar(fs, &j.epochs, "epochs", 8, "training `epochs` for neural models")
	fs.Func("levels", "comma-separated quantile `levels` for predict (default 0.5,0.7,0.9)", func(s string) (err error) {
		j.levels, err = parseLevels(s)
		return err
	})
	fs.Func("period", "seasonal period for arima in `steps` (default 0 = auto-detect from the trace)", func(v string) (err error) {
		if j.period, err = strconv.Atoi(v); err == nil && j.period < 0 {
			err = errors.New("must not be negative")
		}
		return err
	})
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if modes[*mode] == nil || models[j.model] == nil {
		fmt.Fprintf(stderr, "forecast: unknown -mode %q or -model %q\n", *mode, j.model)
		fs.Usage()
		return errUsage
	}

	var err error
	if j.series, err = loadSeries(*dataset, *input, *resource, *seed); err != nil {
		return err
	}
	if j.period <= 0 {
		maxLag := min(j.series.Len()/3, 2016) // two weeks at 10-minute steps
		if p, derr := timeseries.DetectPeriod(j.series, 2, maxLag, 0); derr == nil && p > 0 {
			j.period = p
			if j.model == "arima" {
				j.logf("forecast: auto-detected seasonal period %d steps", p)
			}
		}
	}
	return modes[*mode](j)
}

func loadSeries(dataset, input, resource string, seed int64) (*timeseries.Series, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.ReadCSV(strings.TrimSuffix(input, ".csv"), f)
		if err != nil {
			return nil, err
		}
		return tr.Series(trace.Resource(resource))
	}
	var cfg trace.Config
	switch dataset {
	case "alibaba", "":
		cfg = trace.AlibabaStyle(seed)
	case "google":
		cfg = trace.GoogleStyle(seed)
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return tr.Series(trace.Resource(resource))
}

// fit trains m on s; the MLP trains per horizon.
func fit(j *job, m forecast.Forecaster, s *timeseries.Series) error {
	if mlp, ok := m.(*forecast.MLP); ok {
		return mlp.FitHorizon(s, j.horizon)
	}
	return m.Fit(s)
}

func train(j *job) error {
	m := models[j.model](j)
	if err := fit(j, m, j.series); err != nil {
		return err
	}
	j.logf("forecast: trained %s on %d steps of %s", m.Name(), j.series.Len(), j.series.Name)
	if j.out == "" {
		return nil
	}
	f, err := os.Create(j.out)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	j.logf("forecast: saved to %s", j.out)
	return nil
}

func predict(j *job) error {
	s := j.series
	m := models[j.model](j)
	if j.in != "" {
		f, err := os.Open(j.in)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m.Load(f); err != nil {
			return err
		}
	} else if err := fit(j, m, s); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(j.stdout, 2, 4, 2, ' ', 0)
	qf, ok := m.(forecast.QuantileForecaster)
	if !ok {
		pred, err := m.Predict(s, j.horizon)
		if err != nil {
			return err
		}
		fmt.Fprintln(tw, "time\tpoint")
		for t, v := range pred {
			fmt.Fprintf(tw, "%s\t%.1f\n", s.TimeAt(s.Len()+t).Format("Jan 02 15:04"), v)
		}
		return tw.Flush()
	}

	fan, err := qf.PredictQuantiles(s, j.horizon, j.levels)
	if err != nil {
		return err
	}
	fmt.Fprint(tw, "time")
	for _, l := range j.levels {
		fmt.Fprintf(tw, "\tP%02.0f", l*100)
	}
	fmt.Fprintln(tw)
	for t := 0; t < j.horizon; t++ {
		fmt.Fprint(tw, s.TimeAt(s.Len()+t).Format("Jan 02 15:04"))
		for i := range j.levels {
			fmt.Fprintf(tw, "\t%.1f", fan.Values[t][i])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// backtest trains the model on the first 70% of the series and reports
// rolling-origin accuracy over the last 20%.
func backtest(j *job) error {
	s := j.series
	m := models[j.model](j)
	qf, ok := m.(forecast.QuantileForecaster)
	if !ok {
		return fmt.Errorf("%s is not a quantile forecaster", j.model)
	}
	if err := fit(j, m, s.Slice(0, s.Len()*7/10)); err != nil {
		return err
	}
	res, err := forecast.Backtest(qf, s, forecast.BacktestConfig{
		Start:   s.Len() * 8 / 10,
		Horizon: j.horizon,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(j.stdout, "%s backtest over %d origins:\n", res.Model, len(res.Origins))
	fmt.Fprintf(j.stdout, "  mean_wQL %.4f  MSE %.1f\n", res.MeanWQL, res.MSE)
	for _, tau := range []float64{0.7, 0.8, 0.9} {
		fmt.Fprintf(j.stdout, "  wQL[%.1f] %.4f  coverage %.3f\n", tau, res.WQL[tau], res.Coverage[tau])
	}
	tw := tabwriter.NewWriter(j.stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "origin\tmean_wQL\tMSE")
	for _, o := range res.Origins {
		fmt.Fprintf(tw, "%d\t%.4f\t%.1f\n", o.Origin, o.MeanWQL, o.MSE)
	}
	return tw.Flush()
}

// tune grid-searches a small hyperparameter space for the chosen model
// family, scoring on a validation span — the stdlib stand-in for Optuna.
func tune(j *job) error {
	s, horizon, epochs := j.series, j.horizon, j.epochs
	train := s.Slice(0, s.Len()*7/10)
	val := s.Slice(s.Len()*7/10, s.Len()*9/10)

	var candidates []forecast.Candidate
	switch j.model {
	case "arima":
		for _, p := range []int{4, 6, 12} {
			candidates = append(candidates, forecast.Candidate{
				Label: fmt.Sprintf("arima(%d,0,2)s144", p),
				Build: func() forecast.QuantileForecaster { return forecast.NewSeasonalARIMA(p, 0, 2, 144) },
			})
		}
	case "tft":
		for _, hidden := range []int{16, 24, 32} {
			candidates = append(candidates, forecast.Candidate{
				Label: fmt.Sprintf("tft-h%d", hidden),
				Build: func() forecast.QuantileForecaster {
					return forecast.NewTFT(forecast.TFTConfig{
						Context: 72, Hidden: hidden, Epochs: epochs, Seed: 1,
						MaxWindows: 128, TrainHorizon: horizon,
						Levels: forecast.ScalingLevels,
					})
				},
			})
		}
	case "deepar":
		for _, hidden := range []int{16, 24, 32} {
			candidates = append(candidates, forecast.Candidate{
				Label: fmt.Sprintf("deepar-h%d", hidden),
				Build: func() forecast.QuantileForecaster {
					return forecast.NewDeepAR(forecast.DeepARConfig{
						Context: 72, Hidden: hidden, Epochs: epochs, Seed: 1,
						MaxWindows: 128, Samples: 100, TrainHorizon: horizon,
					})
				},
			})
		}
	default:
		return fmt.Errorf("tuning not defined for %q", j.model)
	}

	results, best, err := forecast.Tune(train, val, horizon, forecast.ScalingLevels, candidates)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(j.stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "candidate\tval mean_wQL")
	for i, r := range results {
		marker := ""
		if i == best {
			marker = "  <- best"
		}
		fmt.Fprintf(tw, "%s\t%.4f%s\n", r.Label, r.Score, marker)
	}
	return tw.Flush()
}

func parseLevels(cs string) ([]float64, error) {
	parts := strings.Split(cs, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad level %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
