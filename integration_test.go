package robustscale_test

// Integration tests exercising complete user journeys across package
// boundaries: exporting and re-importing traces, persisting trained
// models, planning against calibrated thresholds, and replaying plans on
// the simulated cluster.

import (
	"bytes"
	"testing"
	"time"

	"robustscale"
	"robustscale/internal/forecast"
	"robustscale/internal/trace"
)

func TestIntegrationCSVTrainPersistPlanReplay(t *testing.T) {
	// 1. Generate and round-trip a trace through CSV, as a user working
	// from exported data would.
	cfg := trace.AlibabaStyle(11)
	cfg.Days = 6
	cfg.Units = 16
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := tr.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCSV("alibaba", &csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := back.Series(robustscale.CPU)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Train a forecaster, persist it, and restore into a fresh
	// instance.
	fcfg := forecast.TFTConfig{
		Context: 24, Hidden: 12, Epochs: 3, Seed: 1, MaxWindows: 64,
		Levels: []float64{0.5, 0.9}, TrainHorizon: 12,
	}
	trained := forecast.NewTFT(fcfg)
	trainEnd := cpu.Len() * 7 / 10
	if err := trained.Fit(cpu.Slice(0, trainEnd)); err != nil {
		t.Fatal(err)
	}
	var modelBuf bytes.Buffer
	if err := trained.Save(&modelBuf); err != nil {
		t.Fatal(err)
	}
	restored := forecast.NewTFT(fcfg)
	if err := restored.Load(&modelBuf); err != nil {
		t.Fatal(err)
	}

	// 3. Calibrate a threshold from an SLO rather than hand-picking it.
	node := robustscale.QoSNode{ServiceRate: 50, Workers: 4}
	theta, err := robustscale.CalibrateTheta(node, robustscale.SLO{
		Percentile: 0.99, Target: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if theta <= 0 {
		t.Fatalf("theta = %v", theta)
	}

	// 4. Plan with the restored model and evaluate on the held-out tail.
	strat := &robustscale.Robust{Forecaster: restored, Tau: 0.9, Theta: theta}
	evalStart := cpu.Len() * 8 / 10
	res, err := robustscale.EvaluateStrategy(strat, cpu, robustscale.EvalConfig{
		Theta: theta, Horizon: 12, Start: evalStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Steps == 0 {
		t.Fatal("no steps evaluated")
	}

	// 5. Replay on the simulated cluster with latency modeled.
	evaluated := cpu.Slice(evalStart, evalStart+len(res.Allocations))
	c, err := robustscale.NewCluster(robustscale.DefaultClusterConfig(), evaluated.Start, res.Allocations[0])
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.ReplayQoS(evaluated, res.Allocations, node, robustscale.SLO{
		Percentile: 0.99, Target: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Steps) != len(res.Allocations) {
		t.Fatalf("replay steps = %d", len(report.Steps))
	}
	// A 0.9-quantile plan against an SLO-calibrated threshold should
	// mostly comply.
	if report.ViolationRate > 0.35 {
		t.Errorf("SLO violation rate = %v", report.ViolationRate)
	}
}

func TestIntegrationMultiResourceFacade(t *testing.T) {
	tr, err := robustscale.GenerateAlibabaTrace(13)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := tr.Series(robustscale.Memory)
	if err != nil {
		t.Fatal(err)
	}
	cpu = cpu.Slice(0, 800)
	mem = mem.Slice(0, 800)

	build := func(name string, s *robustscale.Series) *forecast.ARIMA {
		m := forecast.NewSeasonalARIMA(4, 0, 1, 144)
		if err := m.Fit(s.Slice(0, 700)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return m
	}
	specs := []robustscale.ResourceSpec{
		{Name: "cpu", History: cpu.Slice(0, 700), Forecaster: build("cpu", cpu), Tau: 0.9, Theta: 120},
		{Name: "memory", History: mem.Slice(0, 700), Forecaster: build("memory", mem), Tau: 0.9, Theta: 150},
	}
	plan, err := robustscale.PlanMultiResource(specs, 12)
	if err != nil {
		t.Fatal(err)
	}
	actuals := map[string][]float64{
		"cpu":    cpu.Values[700:712],
		"memory": mem.Values[700:712],
	}
	under, over, err := robustscale.EvaluateMultiResource(specs, actuals, plan.Allocations)
	if err != nil {
		t.Fatal(err)
	}
	if under < 0 || under > 1 || over < 0 || over > 1 {
		t.Errorf("rates = %v/%v", under, over)
	}
	// The joint plan must dominate each single-resource plan.
	for _, spec := range specs {
		per := plan.PerResource[spec.Name]
		for i := range per {
			if per[i] > plan.Allocations[i] {
				t.Fatalf("joint allocation below %s demand at %d", spec.Name, i)
			}
		}
	}
}

func TestIntegrationAutoscalerDaemonLoop(t *testing.T) {
	// Mimic cmd/autoscaled: a rolling plan/apply loop against the
	// cluster in virtual time, with a reactive strategy (no training).
	tr, err := robustscale.GenerateGoogleTrace(17)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := tr.Series(robustscale.CPU)
	if err != nil {
		t.Fatal(err)
	}
	cpu = cpu.Slice(0, 400)
	strat := &robustscale.ReactiveMax{Window: 6, Theta: 150}

	c, err := robustscale.NewCluster(robustscale.DefaultClusterConfig(), cpu.TimeAt(200), 1)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for origin := 200; origin < cpu.Len(); origin++ {
		round, err := strat.PlanInto(cpu.Slice(0, origin), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ScaleTo(round.Nodes[0]); err != nil {
			t.Fatal(err)
		}
		c.Advance(cpu.Step)
		steps++
	}
	if steps != 200 {
		t.Fatalf("steps = %d", steps)
	}
	if !c.Now().Equal(cpu.TimeAt(400)) {
		t.Errorf("virtual time = %v", c.Now())
	}
}
