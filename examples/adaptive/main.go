// Command adaptive contrasts the fixed-quantile robust scaler (Equation 6)
// with the uncertainty-aware adaptive scaler (Algorithm 1) on the bursty
// Google-style trace: the adaptive strategy should cut over-provisioning
// without giving back robustness, which is the paper's Figure 11 claim.
package main

import (
	"fmt"
	"log"

	"robustscale"
)

func main() {
	log.SetFlags(0)

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
		&robustscale.Staircase{
			Forecaster: tft,
			Base:       0.6,
			Rungs: []robustscale.StaircaseLevel{
				{Rho: rho * 0.5, Tau: 0.8},
				{Rho: rho, Tau: 0.9},
				{Rho: rho * 2, Tau: 0.99},
			},
			Theta: theta,
		},
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
	fmt.Println("\nthe adaptive rows sit between the fixed levels: fewer under-provisioned steps than tau 0.7")
	fmt.Println("and fewer node-steps than tau 0.95, but well short of tau 0.95's robustness")
}
