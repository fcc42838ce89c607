package robustscale_test

// Integration tests exercising complete user journeys across package
// boundaries: exporting and re-importing traces, persisting trained
// models, planning, and replaying plans on the simulated cluster.

import (
	"bytes"
	"testing"

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

	// 3. The per-node threshold: the largest load (164.46) at which an
	// M/M/4 node serving 50 requests/s per worker keeps its p99 response
	// time under 150 ms, rounded down.
	const theta = 164.0

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

	// 5. Replay on the simulated cluster with warm-up modeled.
	evaluated := cpu.Slice(evalStart, evalStart+len(res.Allocations))
	c, err := robustscale.NewCluster(robustscale.DefaultClusterConfig(), evaluated.Start, res.Allocations[0])
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Replay(evaluated, res.Allocations, theta)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Steps) != len(res.Allocations) {
		t.Fatalf("replay steps = %d", len(report.Steps))
	}
	// A 0.9-quantile plan should mostly stay under its threshold.
	if report.ViolationRate > 0.35 {
		t.Errorf("violation rate = %v", report.ViolationRate)
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
