package scaler

import (
	"strings"
	"testing"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/obs"
)

func TestCountActions(t *testing.T) {
	cases := []struct {
		name        string
		prev        int
		allocations []int
		outs, ins   float64
	}{
		{"first step skipped when prev <= 0", 0, []int{5, 7, 3}, 1, 1},
		{"negative prev skipped too", -2, []int{5, 5}, 0, 0},
		{"prev counts against the first step", 2, []int{5, 7, 3}, 2, 1},
		{"constant allocations record nothing", 4, []int{4, 4, 4, 4}, 0, 0},
		{"empty plan records nothing", 3, nil, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outs0, ins0 := scaleOut.Value(), scaleIn.Value()
			countActions(tc.prev, tc.allocations)
			if got := scaleOut.Value() - outs0; got != tc.outs {
				t.Errorf("scale-outs = %v, want %v", got, tc.outs)
			}
			if got := scaleIn.Value() - ins0; got != tc.ins {
				t.Errorf("scale-ins = %v, want %v", got, tc.ins)
			}
		})
	}
}

// enableDecisions turns decision capture on for one test; strategies
// skip record assembly entirely while obs.DefaultDecisions is disabled
// (the default), so every decision-asserting test opts in.
func enableDecisions(t *testing.T) {
	t.Helper()
	obs.DefaultDecisions.SetEnabled(true)
	t.Cleanup(func() { obs.DefaultDecisions.SetEnabled(false) })
}

func TestReactiveDecisions(t *testing.T) {
	enableDecisions(t)
	r := &ReactiveMax{Window: 3, Theta: 10}
	round, err := r.PlanInto(series(10, 50, 30), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, d := round.Nodes, round.Decision
	if d == nil {
		t.Fatal("no decision after plan")
	}
	if d.Strategy != "reactive-max" || d.Horizon != 2 || d.Theta != 10 {
		t.Errorf("decision = %+v", d)
	}
	if len(d.Quantile) != 2 || d.Quantile[0] != 50 || d.Quantile[1] != 50 {
		t.Errorf("drive = %v, want the window peak repeated", d.Quantile)
	}
	if len(d.Binding) != 2 || d.Binding[0] != obs.BindingDemand {
		t.Errorf("binding = %v", d.Binding)
	}
	if len(d.Nodes) != len(plan) || d.Nodes[0] != plan[0] {
		t.Errorf("decision nodes %v vs plan %v", d.Nodes, plan)
	}
}

func TestRobustDecision(t *testing.T) {
	enableDecisions(t)
	qf := &fakeQF{name: "fq", Base: []float64{100, 100}, Spread: []float64{0.2, 0.2}}
	r := &Robust{Forecaster: qf, Tau: 0.9, Theta: 10}
	round, err := r.PlanInto(series(1), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := round.Decision
	if d == nil {
		t.Fatal("no decision after plan")
	}
	if d.Tau1 != 0.9 || d.Tau2 != 0.9 {
		t.Errorf("tau pair = %g/%g, want 0.9/0.9", d.Tau1, d.Tau2)
	}
	for i, tau := range d.Tau {
		if tau != 0.9 {
			t.Errorf("tau[%d] = %g", i, tau)
		}
		// fakeQF: 100*(1+0.2*(0.9-0.5)) = 108.
		if d.Quantile[i] != 108 {
			t.Errorf("quantile[%d] = %g, want 108", i, d.Quantile[i])
		}
	}
}

func TestAdaptiveDecision(t *testing.T) {
	enableDecisions(t)
	// Step 0 confident, step 1 uncertain (same shape as
	// TestAdaptiveSwitchesOnUncertainty).
	qf := &fakeQF{name: "fq", Base: []float64{100, 100}, Spread: []float64{0.05, 1.0}}
	a := &Adaptive{
		Forecaster: qf, Tau1: 0.6, Tau2: 0.95, Rho: 5, Theta: 10,
		Levels: forecast.ScalingLevels,
	}
	round, err := a.PlanInto(series(1), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := round.Decision
	if d == nil {
		t.Fatal("no decision after plan")
	}
	if d.Tau1 != 0.6 || d.Tau2 != 0.95 || d.Rho != 5 {
		t.Errorf("tau1/tau2/rho = %g/%g/%g", d.Tau1, d.Tau2, d.Rho)
	}
	if len(d.U) != 2 || len(d.Tau) != 2 || len(d.Quantile) != 2 || len(d.Binding) != 2 {
		t.Fatalf("per-step slices = %d/%d/%d/%d entries", len(d.U), len(d.Tau), len(d.Quantile), len(d.Binding))
	}
	if d.Tau[0] != 0.6 || d.Tau[1] != 0.95 {
		t.Errorf("tau path = %v, want the uncertain step escalated", d.Tau)
	}
	if d.U[0] >= d.Rho || d.U[1] < d.Rho {
		t.Errorf("U = %v vs rho %g does not match the escalation", d.U, d.Rho)
	}
	// The audit line for the escalated step names the quantile and the
	// tau escalation.
	d.Step, d.PrevNodes = 100, 11
	line := d.Explain(101)
	for _, want := range []string{"q0.95(t+1)", "tau escalated to 0.95"} {
		if !strings.Contains(line, want) {
			t.Errorf("Explain = %q, missing %q", line, want)
		}
	}
}

func TestRecordDecisionStampsContext(t *testing.T) {
	enableDecisions(t)
	obs.DefaultDecisions.Reset()
	defer obs.DefaultDecisions.Reset()

	r := &ReactiveMax{Window: 3, Theta: 10}
	round, err := r.PlanInto(series(10, 50, 30), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := round.Nodes
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	RecordDecisionAdmitted(round.Decision, obs.DefaultTenant, 240, at, 3, plan, 0, "")

	d, ok := obs.DefaultDecisions.Latest()
	if !ok {
		t.Fatal("nothing recorded")
	}
	if d.Step != 240 || !d.Time.Equal(at) || d.PrevNodes != 3 || d.Delta != plan[0]-3 {
		t.Errorf("stamped decision = %+v", d)
	}
	if !d.Covers(241) || d.Covers(242) {
		t.Errorf("coverage of %+v wrong", d)
	}

	// A round without a decision record is a silent no-op.
	before := obs.DefaultDecisions.Total()
	RecordDecisionAdmitted(nil, obs.DefaultTenant, 0, at, 1, []int{1}, 0, "")
	if obs.DefaultDecisions.Total() != before {
		t.Error("a round without a record recorded something")
	}
}

func TestEvaluateRecordsDecisions(t *testing.T) {
	enableDecisions(t)
	obs.DefaultDecisions.Reset()
	defer obs.DefaultDecisions.Reset()

	s := series(10, 20, 30, 40, 50, 60, 70, 80)
	r := &ReactiveMax{Window: 2, Theta: 10}
	if _, err := Evaluate(r, s, EvalConfig{Theta: 10, Horizon: 2, Start: 2}); err != nil {
		t.Fatal(err)
	}
	ds := obs.DefaultDecisions.Decisions()
	if len(ds) != 3 {
		t.Fatalf("recorded %d decisions, want 3 rounds", len(ds))
	}
	if ds[0].Step != 2 || ds[1].Step != 4 || ds[2].Step != 6 {
		t.Errorf("steps = %d/%d/%d", ds[0].Step, ds[1].Step, ds[2].Step)
	}
	if ds[0].PrevNodes != 0 {
		t.Errorf("first round prev = %d, want 0", ds[0].PrevNodes)
	}
	// Each later round starts from the previous round's final allocation.
	for i := 1; i < len(ds); i++ {
		prevPlan := ds[i-1].Nodes
		if ds[i].PrevNodes != prevPlan[len(prevPlan)-1] {
			t.Errorf("round %d prev = %d, want %d", i, ds[i].PrevNodes, prevPlan[len(prevPlan)-1])
		}
	}
	if !ds[0].Time.Equal(s.TimeAt(2)) {
		t.Errorf("round 0 time = %v, want %v", ds[0].Time, s.TimeAt(2))
	}
}

func TestEvaluateTenantLabelling(t *testing.T) {
	enableDecisions(t)
	obs.DefaultDecisions.Reset()
	defer obs.DefaultDecisions.Reset()

	s := series(10, 20, 30, 40, 50, 60, 70, 80)
	// An unset tenant resolves to the default label.
	if _, err := Evaluate(&ReactiveMax{Window: 2, Theta: 10}, s, EvalConfig{Theta: 10, Horizon: 2, Start: 2}); err != nil {
		t.Fatal(err)
	}
	// A fleet member stamps its id on every record of its rounds.
	if _, err := Evaluate(&ReactiveMax{Window: 2, Theta: 10}, s, EvalConfig{Theta: 10, Horizon: 2, Start: 2, Tenant: "tenant-0042"}); err != nil {
		t.Fatal(err)
	}
	for _, d := range obs.DefaultDecisions.Decisions()[:3] {
		if d.Tenant != obs.DefaultTenant {
			t.Errorf("default-run decision tenant = %q, want %q", d.Tenant, obs.DefaultTenant)
		}
	}
	got := obs.DefaultDecisions.FilterTenant("tenant-0042", "", 0, -1)
	if len(got) != 3 {
		t.Fatalf("FilterTenant returned %d decisions, want 3", len(got))
	}
	for _, d := range got {
		if d.Tenant != "tenant-0042" {
			t.Errorf("decision tenant = %q", d.Tenant)
		}
	}
}
