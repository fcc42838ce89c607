package robustscale_test

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"robustscale"
)

// ExampleAllocate shows the per-step allocation rule of Definition 3: the
// minimum node count keeping per-node workload at or below the threshold.
func ExampleAllocate() {
	theta := 10.0
	for _, w := range []float64{5, 10, 25, 95} {
		fmt.Printf("workload %.0f -> %d nodes\n", w, robustscale.Allocate(w, theta))
	}
	// Output:
	// workload 5 -> 1 nodes
	// workload 10 -> 1 nodes
	// workload 25 -> 3 nodes
	// workload 95 -> 10 nodes
}

// ExampleNewSeasonalNaive demonstrates quantile forecasting with the
// simplest seasonal model: the forecast repeats the previous cycle and the
// band comes from historical seasonal differences.
func ExampleNewSeasonalNaive() {
	// A perfectly periodic workload: 4 steps per "day".
	values := []float64{10, 20, 30, 20, 10, 20, 30, 20, 10, 20, 30, 20}
	s := robustscale.NewSeries("cycle", timeZero(), robustscale.DefaultStep, values)

	m := robustscale.NewSeasonalNaive(4)
	if err := m.Fit(s); err != nil {
		fmt.Println(err)
		return
	}
	pred, err := m.Predict(s, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(pred)
	// Output:
	// [10 20 30 20]
}

// ExampleUncertainty shows the uncertainty metric U of Equation 8: a wide
// quantile fan scores higher than a narrow one.
func ExampleUncertainty() {
	levels := []float64{0.1, 0.5, 0.9}
	narrow, _ := robustscale.Uncertainty(levels, []float64{99, 100, 101}, 100)
	wide, _ := robustscale.Uncertainty(levels, []float64{80, 100, 120}, 100)
	fmt.Printf("narrow fan: %.1f\nwide fan:   %.1f\n", narrow, wide)
	// Output:
	// narrow fan: 0.2
	// wide fan:   4.0
}

// timeZero gives examples a fixed start timestamp.
func timeZero() time.Time { return time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC) }

// Example_quickstart is the minimal end-to-end tour of the library:
// generate a synthetic cluster trace, train a TFT quantile forecaster, and
// run the robust auto-scaler (Equation 6) against the held-out tail of the
// trace, reporting under-/over-provisioning and the warm-up-aware cluster
// replay.
func Example_quickstart() {
	// 1. Workload: an Alibaba-style cluster trace aggregated at
	// 10-minute intervals.
	tr, err := robustscale.GenerateAlibabaTrace(42)
	if err != nil {
		log.Fatal(err)
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %s, %d steps of %v, mean CPU %.0f\n",
		cpu.Name, cpu.Len(), cpu.Step, cpu.Mean())

	// 2. Forecaster: a TFT trained to emit a grid of quantiles. Small
	// training budget so the example runs in seconds.
	cfg := robustscale.DefaultTFTConfig()
	cfg.Epochs = 4
	cfg.Hidden = 24
	cfg.MaxWindows = 96
	tft := robustscale.NewTFT(cfg)

	const (
		theta   = 100.0 // per-node threshold in CPU units
		horizon = 72    // plan 12 hours at a time
	)
	trainEnd := cpu.Len() * 7 / 10
	fmt.Printf("training %s on %d steps...\n", tft.Name(), trainEnd)
	if err := tft.Fit(cpu.Slice(0, trainEnd)); err != nil {
		log.Fatal(err)
	}

	// 3. Scale on the 0.9-quantile forecast over the final 20% of the
	// trace, re-planning every horizon from the history seen so far.
	evalStart := cpu.Len() * 8 / 10
	res, err := robustscale.EvaluateStrategy(
		&robustscale.Robust{Forecaster: tft, Tau: 0.9, Theta: theta},
		cpu, robustscale.EvalConfig{Theta: theta, Horizon: horizon, Start: evalStart})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Execute the plan on a simulated cluster whose new nodes take
	// time to warm up.
	evaluated := cpu.Slice(evalStart, evalStart+len(res.Allocations))
	c, err := robustscale.NewCluster(robustscale.DefaultClusterConfig(), evaluated.Start, res.Allocations[0])
	if err != nil {
		log.Fatal(err)
	}
	replay, err := c.Replay(evaluated, res.Allocations, theta)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nstrategy %s over %d steps:\n", res.Strategy, res.Report.Steps)
	fmt.Printf("  under-provisioned: %5.2f%% of steps\n", 100*res.Report.UnderProvisionRate)
	fmt.Printf("  over-provisioned:  %5.2f%% of steps\n", 100*res.Report.OverProvisionRate)
	fmt.Printf("  mean utilization:  %5.1f%% of the threshold\n", 100*res.Report.MeanUtilization)
	fmt.Printf("  node-steps: %d allocated vs %d minimum\n",
		res.Report.TotalNodes, res.Report.TotalMinimumNodes)
	fmt.Printf("cluster replay (warm-up modeled): %.2f%% threshold violations, %d scale-outs, %d scale-ins\n",
		100*replay.ViolationRate, replay.ScaleOuts, replay.ScaleIns)
	// Output:
	// trace: alibaba/cpu, 4032 steps of 10m0s, mean CPU 2655
	// training tft on 2822 steps...
	//
	// strategy tft-0.9 over 792 steps:
	//   under-provisioned: 16.29% of steps
	//   over-provisioned:  57.32% of steps
	//   mean utilization:   93.3% of the threshold
	//   node-steps: 23023 allocated vs 22274 minimum
	// cluster replay (warm-up modeled): 16.41% threshold violations, 166 scale-outs, 193 scale-ins
}

// Example_capacityPlanner demonstrates 12-hour look-ahead capacity
// planning for a cloud database fleet: a DeepAR forecaster produces a
// quantile fan for the next 72 intervals and the planner prints, per
// interval, the workload band and the node counts an aggressive (0.5),
// balanced (0.8) and conservative (0.95) policy would commit to — the
// conservatism dial of the paper made tangible.
func Example_capacityPlanner() {
	tr, err := robustscale.GenerateGoogleTrace(7)
	if err != nil {
		log.Fatal(err)
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		log.Fatal(err)
	}

	cfg := robustscale.DefaultDeepARConfig()
	cfg.Epochs = 4
	cfg.Hidden = 24
	cfg.MaxWindows = 96
	model := robustscale.NewDeepAR(cfg)

	trainEnd := cpu.Len() * 8 / 10
	fmt.Printf("training %s on %d steps of %s...\n", model.Name(), trainEnd, cpu.Name)
	if err := model.Fit(cpu.Slice(0, trainEnd)); err != nil {
		log.Fatal(err)
	}

	const (
		theta   = 100.0
		horizon = 72
	)
	history := cpu.Slice(0, trainEnd)
	forecastLevels := []float64{0.1, 0.5, 0.8, 0.95}
	fan, err := model.PredictQuantiles(history, horizon, forecastLevels)
	if err != nil {
		log.Fatal(err)
	}

	policies := []struct {
		label string
		tau   float64
	}{
		{"aggressive(0.5)", 0.5},
		{"balanced(0.8)", 0.8},
		{"conservative(0.95)", 0.95},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "time\tP10\tP50\tP95\taggressive\tbalanced\tconservative")
	totals := make([]int, len(policies))
	for t := 0; t < horizon; t += 6 { // print hourly
		ts := history.TimeAt(history.Len() + t)
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f",
			ts.Format("Jan 02 15:04"), fan.At(t, 0.1), fan.At(t, 0.5), fan.At(t, 0.95))
		for _, p := range policies {
			fmt.Fprintf(tw, "\t%d", robustscale.Allocate(fan.At(t, p.tau), theta))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	// Full-horizon totals: what each policy costs in node-steps, and how
	// each would have fared against the realized workload.
	actual := cpu.Values[trainEnd : trainEnd+horizon]
	fmt.Println("\nfull 12-hour plan vs realized workload:")
	for i, p := range policies {
		path := make([]float64, horizon)
		for t := 0; t < horizon; t++ {
			path[t] = fan.At(t, p.tau)
		}
		plan, err := robustscale.PlanAllocations(path, theta)
		if err != nil {
			log.Fatal(err)
		}
		report, err := robustscale.Provisioning(actual, plan, theta)
		if err != nil {
			log.Fatal(err)
		}
		totals[i] = report.TotalNodes
		fmt.Printf("  %-20s %4d node-steps, %5.1f%% under-provisioned, %5.1f%% over-provisioned\n",
			p.label, report.TotalNodes,
			100*report.UnderProvisionRate, 100*report.OverProvisionRate)
	}
	fmt.Printf("\nthe conservative policy costs %+d node-steps over aggressive — the price of robustness\n",
		totals[2]-totals[0])
	// Output:
	// training deepar on 3225 steps of google/cpu...
	// time          P10   P50   P95   aggressive  balanced  conservative
	// Sep 23 09:30  2343  2705  3181  28          30        32
	// Sep 23 10:30  1988  2354  2993  24          28        30
	// Sep 23 11:30  2142  2433  2912  25          28        30
	// Sep 23 12:30  2045  2467  3064  25          28        31
	// Sep 23 13:30  1966  2492  3119  25          28        32
	// Sep 23 14:30  1884  2272  2827  23          26        29
	// Sep 23 15:30  1883  2229  2819  23          26        29
	// Sep 23 16:30  1664  2182  2831  22          26        29
	// Sep 23 17:30  1661  2171  2772  22          25        28
	// Sep 23 18:30  1672  2053  2593  21          24        26
	// Sep 23 19:30  1654  2033  2601  21          24        27
	// Sep 23 20:30  1518  1946  2634  20          23        27
	//
	// full 12-hour plan vs realized workload:
	//   aggressive(0.5)      1652 node-steps,  98.6% under-provisioned,   0.0% over-provisioned
	//   balanced(0.8)        1860 node-steps,  97.2% under-provisioned,   1.4% over-provisioned
	//   conservative(0.95)   2088 node-steps,  70.8% under-provisioned,  18.1% over-provisioned
	//
	// the conservative policy costs +436 node-steps over aggressive — the price of robustness
}

// Example_adaptive contrasts the fixed-quantile robust scaler (Equation 6)
// with the uncertainty-aware adaptive scaler (Algorithm 1) on the bursty
// Google-style trace (the paper's Figure 11).
func Example_adaptive() {
	tr, err := robustscale.GenerateGoogleTrace(21)
	if err != nil {
		log.Fatal(err)
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		log.Fatal(err)
	}

	cfg := robustscale.DefaultTFTConfig()
	cfg.Epochs = 4
	cfg.Hidden = 24
	cfg.MaxWindows = 96
	cfg.Levels = robustscale.ScalingLevels
	tft := robustscale.NewTFT(cfg)

	const (
		theta   = 100.0
		horizon = 72
	)
	trainEnd := cpu.Len() * 7 / 10
	evalStart := cpu.Len() * 8 / 10
	fmt.Printf("training %s on %d steps of %s...\n", tft.Name(), trainEnd, cpu.Name)
	if err := tft.Fit(cpu.Slice(0, trainEnd)); err != nil {
		log.Fatal(err)
	}

	// Calibrate the uncertainty threshold on the span between training
	// and evaluation, as the paper prescribes: the median per-step
	// uncertainty of historical forecasts.
	var calibration []float64
	for origin := trainEnd; origin+horizon <= evalStart; origin += horizon {
		fan, err := tft.PredictQuantiles(cpu.Slice(0, origin), horizon, robustscale.ScalingLevels)
		if err != nil {
			log.Fatal(err)
		}
		us, err := robustscale.ForecastUncertainties(fan)
		if err != nil {
			log.Fatal(err)
		}
		calibration = append(calibration, us...)
	}
	calSeries := robustscale.NewSeries("calibration", cpu.Start, cpu.Step, calibration)
	rho := calSeries.Quantile(0.5)
	fmt.Printf("calibrated uncertainty threshold rho = %.2f (median of %d steps)\n", rho, len(calibration))

	strategies := []robustscale.Strategy{
		&robustscale.Robust{Forecaster: tft, Tau: 0.7, Theta: theta},
		&robustscale.Robust{Forecaster: tft, Tau: 0.95, Theta: theta},
		&robustscale.Adaptive{Forecaster: tft, Tau1: 0.7, Tau2: 0.95, Rho: rho, Theta: theta},
	}

	fmt.Printf("\n%-22s %14s %14s %12s\n", "strategy", "under-prov.", "over-prov.", "node-steps")
	for _, strat := range strategies {
		res, err := robustscale.EvaluateStrategy(strat, cpu, robustscale.EvalConfig{
			Theta:   theta,
			Horizon: horizon,
			Start:   evalStart,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %13.2f%% %13.2f%% %12d\n",
			res.Strategy,
			100*res.Report.UnderProvisionRate,
			100*res.Report.OverProvisionRate,
			res.Report.TotalNodes)
	}
	fmt.Println("\nthe adaptive row sits between the fixed levels: fewer under-provisioned steps than tau 0.7")
	fmt.Println("and fewer node-steps than tau 0.95, but well short of tau 0.95's robustness")
	// Output:
	// training tft on 2822 steps of google/cpu...
	// calibrated uncertainty threshold rho = 372.44 (median of 360 steps)
	//
	// strategy                  under-prov.     over-prov.   node-steps
	// tft-0.7                        29.29%         59.72%        15600
	// tft-0.95                        4.92%         94.19%        20694
	// tft-adaptive-0.7/0.95          26.52%         64.52%        16410
	//
	// the adaptive row sits between the fixed levels: fewer under-provisioned steps than tau 0.7
	// and fewer node-steps than tau 0.95, but well short of tau 0.95's robustness
}
