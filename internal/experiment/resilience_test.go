package experiment

import (
	"bytes"
	"strings"
	"testing"

	"robustscale/internal/obs"
)

func TestResilienceSmoke(t *testing.T) {
	// Decision capture is what cmd/experiment runs the matrix with; the
	// degraded-decision count below reads it back.
	obs.DefaultDecisions.Reset()
	obs.DefaultDecisions.SetEnabled(true)
	defer func() {
		obs.DefaultDecisions.SetEnabled(false)
		obs.DefaultDecisions.Reset()
	}()
	cfg := Config{Seed: 42, Days: 4, Context: 12, Horizon: 12, Theta: 100, Runs: 1, Quick: true}
	z, err := NewZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Resilience(z, Alibaba, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want one per strategy", len(rep.Rows))
	}
	if rep.FaultsInjected == 0 {
		t.Error("smoke profile fired no faults")
	}
	if rep.DegradedRoundsTotal == 0 {
		t.Error("smoke profile engaged no fallbacks")
	}
	if rep.HoldsTotal == 0 {
		t.Error("smoke profile held no apply")
	}
	if rep.DegradedDecisions == 0 {
		t.Error("smoke profile retained no degraded decision record")
	}
	for _, r := range rep.Rows {
		if r.ViolationRate < 0 || r.ViolationRate > 1 {
			t.Errorf("%s: violation rate %v", r.Strategy, r.ViolationRate)
		}
		if r.AvgNodes < 1 {
			t.Errorf("%s: avg nodes %v", r.Strategy, r.AvgNodes)
		}
	}

	// Determinism: the same seed reproduces the same matrix.
	z2, err := NewZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Resilience(z2, Alibaba, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Rows {
		if rep.Rows[i] != rep2.Rows[i] {
			t.Errorf("row %d not deterministic: %+v vs %+v", i, rep.Rows[i], rep2.Rows[i])
		}
	}

	var buf bytes.Buffer
	if err := RenderResilience(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "smoke") {
		t.Error("render missing profile column")
	}
	buf.Reset()
	if err := WriteResilienceJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"faults_injected\"") {
		t.Error("JSON missing faults_injected")
	}
}

func TestResilienceFaultFreeBaselineMatches(t *testing.T) {
	// Under the "none" preset every delta must be exactly zero: the
	// guarded loop with chaos disabled is bit-identical to the baseline.
	cfg := Config{Seed: 42, Days: 4, Context: 12, Horizon: 12, Theta: 100, Runs: 1, Quick: true}
	z, err := NewZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Resilience(z, Alibaba, "none")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.ViolationDelta != 0 || r.CostDelta != 0 {
			t.Errorf("%s: fault-free deltas nonzero: %+v", r.Strategy, r)
		}
		if r.DegradedRounds != 0 || r.Holds != 0 || r.Failures != 0 {
			t.Errorf("%s: fault-free run degraded: %+v", r.Strategy, r)
		}
	}
}
