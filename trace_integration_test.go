package robustscale_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"robustscale"
)

// stubQF is a deterministic quantile forecaster exercising the decision
// pipeline end to end: the forecast at level tau for step t is
// Base[t%len] * (1 + Spread[t%len]*(tau-0.5)).
type stubQF struct {
	name   string
	Base   []float64
	Spread []float64
}

func (f *stubQF) Name() string                  { return f.name }
func (f *stubQF) Fit(*robustscale.Series) error { return nil }
func (f *stubQF) Predict(_ *robustscale.Series, h int) ([]float64, error) {
	out := make([]float64, h)
	for t := range out {
		out[t] = f.Base[t%len(f.Base)]
	}
	return out, nil
}

func (f *stubQF) PredictQuantiles(_ *robustscale.Series, h int, levels []float64) (*robustscale.QuantileForecast, error) {
	q := &robustscale.QuantileForecast{
		Levels: levels,
		Values: make([][]float64, h),
		Mean:   make([]float64, h),
	}
	for t := 0; t < h; t++ {
		base, spread := f.Base[t%len(f.Base)], f.Spread[t%len(f.Spread)]
		row := make([]float64, len(levels))
		for i, tau := range levels {
			row[i] = base * (1 + spread*(tau-0.5))
		}
		q.Values[t] = row
		q.Mean[t] = base
	}
	return q, nil
}

// TestDecisionTracingEndToEnd drives every strategy through the
// evaluation harness with tracing enabled, then checks the two artifacts
// the observability layer promises: at least one queryable decision per
// strategy with its audit fields populated, and a schema-valid Chrome
// trace with spans across plan-round/forecast/optimize.
func TestDecisionTracingEndToEnd(t *testing.T) {
	robustscale.DefaultTracer.Reset()
	robustscale.DefaultTracer.SetEnabled(true)
	robustscale.DefaultDecisions.Reset()
	robustscale.DefaultDecisions.SetEnabled(true)
	defer func() {
		robustscale.DefaultTracer.SetEnabled(false)
		robustscale.DefaultTracer.Reset()
		robustscale.DefaultDecisions.SetEnabled(false)
		robustscale.DefaultDecisions.Reset()
	}()

	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = 100 + 50*float64(i%6)
	}
	s := robustscale.NewSeries("cpu", time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
		robustscale.DefaultStep, vals)

	qf := &stubQF{name: "stub", Base: []float64{120, 300, 90}, Spread: []float64{0.05, 0.9, 0.4}}
	strategies := []robustscale.Strategy{
		&robustscale.ReactiveMax{Window: 4, Theta: 100},
		&robustscale.ReactiveAvg{Window: 4, HalfLife: 4, Theta: 100},
		&robustscale.Predictive{Forecaster: qf, Theta: 100},
		&robustscale.Robust{Forecaster: qf, Tau: 0.9, Theta: 100},
		&robustscale.Adaptive{Forecaster: qf, Tau1: 0.6, Tau2: 0.95, Rho: 5, Theta: 100,
			Levels: robustscale.ScalingLevels},
	}
	cfg := robustscale.EvalConfig{Theta: 100, Horizon: 3, Start: 24}
	for _, strat := range strategies {
		if _, err := robustscale.EvaluateStrategy(strat, s, cfg); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
	}

	// Every strategy left at least one queryable decision.
	var adaptiveName string
	for _, strat := range strategies {
		ds := robustscale.DefaultDecisions.Filter(strat.Name(), 0, -1)
		if len(ds) == 0 {
			t.Errorf("%s: no decisions recorded", strat.Name())
			continue
		}
		d := ds[0]
		if d.Step != cfg.Start || d.Horizon != cfg.Horizon || len(d.Nodes) != cfg.Horizon {
			t.Errorf("%s: first decision = step %d horizon %d nodes %v", strat.Name(), d.Step, d.Horizon, d.Nodes)
		}
		if d.Delta != d.Nodes[0]-d.PrevNodes {
			t.Errorf("%s: delta %d != %d - %d", strat.Name(), d.Delta, d.Nodes[0], d.PrevNodes)
		}
		if _, ok := strat.(*robustscale.Adaptive); ok {
			adaptiveName = strat.Name()
			if len(d.U) != cfg.Horizon || d.Tau1 != 0.6 || d.Tau2 != 0.95 {
				t.Errorf("adaptive decision missing audit fields: U=%v tau=%g/%g", d.U, d.Tau1, d.Tau2)
			}
		}
	}

	// The adaptive audit line names the bounding quantile; the uncertain
	// step (spread 0.9 at offset 1) escalates tau.
	if d, ok := robustscale.DefaultDecisions.At(cfg.Start + 1); !ok || !d.Covers(cfg.Start+1) {
		t.Error("no decision covers the second evaluated step")
	}
	found := false
	for _, d := range robustscale.DefaultDecisions.Filter(adaptiveName, 0, -1) {
		line := d.Explain(d.Step + 1)
		if strings.Contains(line, "q0.95") && strings.Contains(line, "tau escalated to 0.95") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no adaptive audit line names the escalated quantile")
	}

	// The trace exports as schema-valid Chrome JSON: X events carrying
	// ph/ts/dur/pid/tid with ts monotone per tid, covering the span
	// vocabulary of the control loop.
	var buf bytes.Buffer
	if err := robustscale.DefaultTracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	lastTS := map[uint64]float64{}
	for i, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.TS == nil || ev.Dur == nil || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %d missing required fields", i)
		}
		if *ev.TS < lastTS[*ev.TID] {
			t.Errorf("event %d: ts not monotone on tid %d", i, *ev.TID)
		}
		lastTS[*ev.TID] = *ev.TS
		names[ev.Name]++
	}
	for _, want := range []string{"plan-round", "forecast", "optimize"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q spans (got %v)", want, names)
		}
	}
}
