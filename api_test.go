package robustscale_test

import (
	"testing"

	"robustscale"
)

// TestPublicAPIEndToEnd drives the whole library through the public facade
// only, the way a downstream user would.
func TestPublicAPIEndToEnd(t *testing.T) {
	tr, err := robustscale.GenerateTrace(robustscale.TraceConfig{
		Name: "api-test", Seed: 5, Units: 8, Days: 3,
		BaseLoad: 50, DailyAmp: 0.4, NoiseStd: 0.05, NoisePhi: 0.7,
		Resources: []robustscale.Resource{robustscale.CPU},
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Step != robustscale.DefaultStep {
		t.Errorf("step = %v", cpu.Step)
	}

	cfg := robustscale.DefaultTFTConfig()
	cfg.Context, cfg.Hidden, cfg.Epochs, cfg.MaxWindows = 24, 12, 3, 48
	cfg.TrainHorizon = 12
	cfg.Levels = robustscale.ScalingLevels
	tft := robustscale.NewTFT(cfg)

	trainEnd := cpu.Len() * 7 / 10
	if err := tft.Fit(cpu.Slice(0, trainEnd)); err != nil {
		t.Fatal(err)
	}
	start := cpu.Len() * 8 / 10
	res, err := robustscale.EvaluateStrategy(&robustscale.Robust{Forecaster: tft, Tau: 0.9, Theta: 40},
		cpu, robustscale.EvalConfig{Theta: 40, Horizon: 12, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	evaluated := cpu.Slice(start, start+len(res.Allocations))
	c, err := robustscale.NewCluster(robustscale.DefaultClusterConfig(), evaluated.Start, res.Allocations[0])
	if err != nil {
		t.Fatal(err)
	}
	replay, err := c.Replay(evaluated, res.Allocations, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Steps == 0 {
		t.Fatal("no steps evaluated")
	}
	if replay == nil {
		t.Fatal("no replay report")
	}

	// Quantile forecast through the facade.
	fan, err := tft.PredictQuantiles(cpu.Slice(0, trainEnd), 12, robustscale.ScalingLevels)
	if err != nil {
		t.Fatal(err)
	}
	us, err := robustscale.ForecastUncertainties(fan)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 12 {
		t.Errorf("uncertainties = %d", len(us))
	}

	// Allocation helpers.
	if c := robustscale.Allocate(95, 40); c != 3 {
		t.Errorf("Allocate = %d", c)
	}
	plan, err := robustscale.PlanConstrained([]float64{40, 200}, 40, robustscale.ThrashingConfig{Initial: 1, MaxDelta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 {
		t.Errorf("plan = %v", plan)
	}

	// Metrics.
	wql, err := robustscale.WQL(0.9, []float64{10, 10}, []float64{9, 11})
	if err != nil {
		t.Fatal(err)
	}
	if wql <= 0 {
		t.Errorf("wQL = %v", wql)
	}
}

// TestAdaptivePipelineFacade runs the Algorithm 1 strategy closed-loop.
func TestAdaptivePipelineFacade(t *testing.T) {
	tr, err := robustscale.GenerateGoogleTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		t.Fatal(err)
	}
	cpu = cpu.Slice(0, 600)

	cfg := robustscale.DefaultDeepARConfig()
	cfg.Context, cfg.Hidden, cfg.Epochs, cfg.MaxWindows = 24, 12, 2, 48
	cfg.TrainHorizon, cfg.Samples = 12, 40
	model := robustscale.NewDeepAR(cfg)

	if err := model.Fit(cpu.Slice(0, 480)); err != nil {
		t.Fatal(err)
	}
	res, err := robustscale.EvaluateStrategy(
		&robustscale.Adaptive{Forecaster: model, Tau1: 0.7, Tau2: 0.95, Rho: 1.0, Theta: 200},
		cpu, robustscale.EvalConfig{Theta: 200, Horizon: 12, Start: 480})
	if err != nil {
		t.Fatal(err)
	}
	evaluated := cpu.Slice(480, 480+len(res.Allocations))
	c, err := robustscale.NewCluster(robustscale.DefaultClusterConfig(), evaluated.Start, res.Allocations[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(evaluated, res.Allocations, 200); err != nil {
		t.Fatal(err)
	}
	if res.Report.Steps == 0 {
		t.Fatal("no steps evaluated")
	}
}
