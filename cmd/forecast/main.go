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
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"robustscale/internal/forecast"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		mode       = flag.String("mode", "train", "train or predict")
		model      = flag.String("model", "tft", "tft | deepar | mlp | arima | qb5000")
		dataset    = flag.String("dataset", "", "generate a trace: alibaba or google (alternative to -input)")
		seed       = flag.Int64("seed", 42, "trace seed when generating")
		input      = flag.String("input", "", "CSV trace path (written by tracegen)")
		resource   = flag.String("resource", "cpu", "trace resource column")
		out        = flag.String("out", "", "where to save the trained model")
		in         = flag.String("in", "", "saved model to load for predict")
		horizon    = flag.Int("horizon", 72, "forecast horizon in steps")
		context    = flag.Int("context", 72, "model context window in steps")
		epochs     = flag.Int("epochs", 8, "training epochs for neural models")
		levelsCS   = flag.String("levels", "0.5,0.7,0.9", "comma-separated quantile levels for predict")
		periodFlag = flag.Int("period", 0, "seasonal period for arima in steps (0 = auto-detect from the trace)")
	)
	flag.Parse()

	series, err := loadSeries(*dataset, *input, *resource, *seed)
	if err != nil {
		log.Fatal(err)
	}

	period := *periodFlag
	if period <= 0 {
		maxLag := series.Len() / 3
		if maxLag > 2016 { // two weeks at 10-minute steps
			maxLag = 2016
		}
		if p, derr := timeseries.DetectPeriod(series, 2, maxLag, 0); derr == nil && p > 0 {
			period = p
			if *model == "arima" {
				log.Printf("forecast: auto-detected seasonal period %d steps", period)
			}
		}
	}

	switch *mode {
	case "train":
		if err := train(*model, series, *out, *context, *horizon, *epochs, period); err != nil {
			log.Fatal(err)
		}
	case "predict":
		levels, err := parseLevels(*levelsCS)
		if err != nil {
			log.Fatal(err)
		}
		if err := predict(*model, series, *in, *context, *horizon, *epochs, period, levels); err != nil {
			log.Fatal(err)
		}
	case "backtest":
		if err := backtest(*model, series, *context, *horizon, *epochs, period); err != nil {
			log.Fatal(err)
		}
	case "tune":
		if err := tune(*model, series, *horizon, *epochs); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("forecast: unknown mode %q", *mode)
	}
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
		return nil, fmt.Errorf("forecast: unknown dataset %q", dataset)
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return tr.Series(trace.Resource(resource))
}

// build constructs an untrained model; saved models must be loaded into an
// identically configured instance, so predict reuses this.
func build(model string, context, horizon, epochs, period int) (forecast.Forecaster, error) {
	switch model {
	case "arima":
		return forecast.NewSeasonalARIMA(6, 0, 2, period), nil
	case "mlp":
		return forecast.NewMLP(forecast.MLPConfig{Context: context, Hidden: 48, Epochs: epochs, Seed: 1, MaxWindows: 192}), nil
	case "deepar":
		return forecast.NewDeepAR(forecast.DeepARConfig{
			Context: context, Hidden: 32, Epochs: epochs, Seed: 1,
			MaxWindows: 160, Samples: 100, TrainHorizon: horizon,
		}), nil
	case "tft":
		return forecast.NewTFT(forecast.TFTConfig{
			Context: context, Hidden: 32, Epochs: epochs, Seed: 1,
			MaxWindows: 160, TrainHorizon: horizon,
			Levels: forecast.ScalingLevels,
		}), nil
	case "qb5000":
		return forecast.NewQB5000(forecast.QB5000Config{
			Context: context, Hidden: 24, Epochs: epochs, Seed: 1,
			MaxWindows: 160, TrainHorizon: horizon,
		}), nil
	default:
		return nil, fmt.Errorf("forecast: unknown model %q", model)
	}
}

func train(model string, s *timeseries.Series, out string, context, horizon, epochs, period int) error {
	m, err := build(model, context, horizon, epochs, period)
	if err != nil {
		return err
	}
	if mlp, ok := m.(*forecast.MLP); ok {
		// The MLP trains per horizon.
		if err := mlp.FitHorizon(s, horizon); err != nil {
			return err
		}
	} else if err := m.Fit(s); err != nil {
		return err
	}
	log.Printf("forecast: trained %s on %d steps of %s", m.Name(), s.Len(), s.Name)
	if out == "" {
		return nil
	}
	snap, ok := m.(forecast.Snapshotter)
	if !ok {
		return fmt.Errorf("forecast: %s does not support saving", m.Name())
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := snap.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("forecast: saved to %s", out)
	return nil
}

func predict(model string, s *timeseries.Series, in string, context, horizon, epochs, period int, levels []float64) error {
	m, err := build(model, context, horizon, epochs, period)
	if err != nil {
		return err
	}
	if in != "" {
		snap, ok := m.(forecast.Snapshotter)
		if !ok {
			return fmt.Errorf("forecast: %s does not support loading", m.Name())
		}
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := snap.Load(f); err != nil {
			return err
		}
	} else if mlp, ok := m.(*forecast.MLP); ok {
		if err := mlp.FitHorizon(s, horizon); err != nil {
			return err
		}
	} else if err := m.Fit(s); err != nil {
		return err
	}

	qf, ok := m.(forecast.QuantileForecaster)
	if !ok {
		pred, err := m.Predict(s, horizon)
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "time\tpoint")
		for t, v := range pred {
			fmt.Fprintf(tw, "%s\t%.1f\n", s.TimeAt(s.Len()+t).Format("Jan 02 15:04"), v)
		}
		return tw.Flush()
	}

	fan, err := qf.PredictQuantiles(s, horizon, levels)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "time")
	for _, l := range levels {
		fmt.Fprintf(tw, "\tP%02.0f", l*100)
	}
	fmt.Fprintln(tw)
	for t := 0; t < horizon; t++ {
		fmt.Fprint(tw, s.TimeAt(s.Len()+t).Format("Jan 02 15:04"))
		for i := range levels {
			fmt.Fprintf(tw, "\t%.1f", fan.Values[t][i])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// backtest trains the model on the first 70% of the series and reports
// rolling-origin accuracy over the last 20%.
func backtest(model string, s *timeseries.Series, context, horizon, epochs, period int) error {
	m, err := build(model, context, horizon, epochs, period)
	if err != nil {
		return err
	}
	qf, ok := m.(forecast.QuantileForecaster)
	if !ok {
		return fmt.Errorf("forecast: %s is not a quantile forecaster", model)
	}
	trainEnd := s.Len() * 7 / 10
	if mlp, isMLP := m.(*forecast.MLP); isMLP {
		err = mlp.FitHorizon(s.Slice(0, trainEnd), horizon)
	} else {
		err = m.Fit(s.Slice(0, trainEnd))
	}
	if err != nil {
		return err
	}
	res, err := forecast.Backtest(qf, s, forecast.BacktestConfig{
		Start:   s.Len() * 8 / 10,
		Horizon: horizon,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s backtest over %d origins:\n", res.Model, len(res.Origins))
	fmt.Printf("  mean_wQL %.4f  MSE %.1f\n", res.MeanWQL, res.MSE)
	for _, tau := range []float64{0.7, 0.8, 0.9} {
		fmt.Printf("  wQL[%.1f] %.4f  coverage %.3f\n", tau, res.WQL[tau], res.Coverage[tau])
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "origin\tmean_wQL\tMSE")
	for _, o := range res.Origins {
		fmt.Fprintf(tw, "%d\t%.4f\t%.1f\n", o.Origin, o.MeanWQL, o.MSE)
	}
	return tw.Flush()
}

// tune grid-searches a small hyperparameter space for the chosen model
// family, scoring on a validation span — the stdlib stand-in for Optuna.
func tune(model string, s *timeseries.Series, horizon, epochs int) error {
	train := s.Slice(0, s.Len()*7/10)
	val := s.Slice(s.Len()*7/10, s.Len()*9/10)

	var candidates []forecast.Candidate
	switch model {
	case "arima":
		for _, p := range []int{4, 6, 12} {
			p := p
			candidates = append(candidates, forecast.Candidate{
				Label: fmt.Sprintf("arima(%d,0,2)s144", p),
				Build: func() forecast.QuantileForecaster { return forecast.NewSeasonalARIMA(p, 0, 2, 144) },
			})
		}
	case "tft":
		for _, hidden := range []int{16, 24, 32} {
			hidden := hidden
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
			hidden := hidden
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
		return fmt.Errorf("forecast: tuning not defined for %q", model)
	}

	results, best, err := forecast.Tune(train, val, horizon, forecast.ScalingLevels, candidates)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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
			return nil, fmt.Errorf("forecast: bad level %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
