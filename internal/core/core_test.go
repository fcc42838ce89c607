package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func workload(n int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100 + 40*math.Sin(2*math.Pi*float64(i)/48) + rng.NormFloat64()*4
	}
	return timeseries.New("wl", t0, timeseries.DefaultStep, vals)
}

func tinyTFT() *forecast.TFT {
	return forecast.NewTFT(forecast.TFTConfig{
		Context: 24, Hidden: 12, Epochs: 6, LR: 5e-3, Seed: 1,
		MaxWindows: 64, Levels: []float64{0.5, 0.7, 0.9}, TrainHorizon: 12,
	})
}

func TestRobustPipelineEndToEnd(t *testing.T) {
	s := workload(500, 1)
	p := NewRobust(tinyTFT(), 0.9, 20, 12)
	if err := p.Train(s.Slice(0, 400)); err != nil {
		t.Fatal(err)
	}
	report, err := p.Run(s, 400, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if report.Provisioning.Steps != 96 {
		t.Errorf("steps = %d", report.Provisioning.Steps)
	}
	if len(report.Allocations) != 96 {
		t.Errorf("allocations = %d", len(report.Allocations))
	}
	if report.Replay == nil || len(report.Replay.Steps) != 96 {
		t.Error("replay missing")
	}
	// A conservative 0.9-quantile plan on a benign workload should rarely
	// under-provision.
	if report.Provisioning.UnderProvisionRate > 0.3 {
		t.Errorf("under rate = %v", report.Provisioning.UnderProvisionRate)
	}
	if report.Strategy != "tft-0.9" {
		t.Errorf("strategy = %q", report.Strategy)
	}
}

func TestAdaptivePipeline(t *testing.T) {
	s := workload(500, 2)
	p := NewAdaptive(tinyTFT(), 0.7, 0.95, 1.0, 20, 12)
	if err := p.Train(s.Slice(0, 400)); err != nil {
		t.Fatal(err)
	}
	report, err := p.Run(s, 400, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if report.Provisioning.Steps == 0 {
		t.Error("no steps evaluated")
	}
}

func TestReactivePipelineNeedsNoTraining(t *testing.T) {
	s := workload(300, 3)
	p := &Pipeline{Strategy: &scaler.ReactiveMax{Window: 6, Theta: 20}, Theta: 20, Horizon: 1}
	if err := p.Train(s.Slice(0, 200)); err != nil {
		t.Fatal(err)
	}
	report, err := p.Run(s, 200, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if report.Provisioning.Steps != 100 {
		t.Errorf("steps = %d", report.Provisioning.Steps)
	}
}

func TestPipelineValidation(t *testing.T) {
	s := workload(300, 4)
	if err := (&Pipeline{Strategy: &scaler.ReactiveMax{Theta: 20}, Theta: 20, Horizon: 0}).Train(s); err == nil {
		t.Error("zero horizon should fail")
	}
	if err := (&Pipeline{Strategy: &scaler.ReactiveMax{Theta: 20}, Theta: 0, Horizon: 1}).Train(s); err == nil {
		t.Error("zero theta should fail")
	}
	p := &Pipeline{Strategy: &scaler.ReactiveMax{Theta: 20}, Theta: 20, Horizon: 1}
	if _, err := p.Run(s, 100, cluster.DefaultConfig()); err == nil {
		t.Error("untrained pipeline should fail")
	}
}
