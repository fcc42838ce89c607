package fleet

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"robustscale/internal/obs"
)

// percentile is the sort-based nearest-rank percentile of a sample (p in (0, 100]);
// the input is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// TestReportSketchPercentilesAgree pins the acceptance criterion: the
// report's sketch-based percentiles must agree with the sort-based
// nearest-rank values recomputed from the per-tenant records within the
// sketch's configured relative accuracy (1%).
func TestReportSketchPercentilesAgree(t *testing.T) {
	cfg := testConfig(24)
	rep := runFleet(t, cfg)
	if len(rep.PerTenant) != 24 {
		t.Fatalf("expected per-tenant records, got %d", len(rep.PerTenant))
	}
	vrates := make([]float64, 0, len(rep.PerTenant))
	costs := make([]float64, 0, len(rep.PerTenant))
	for _, tr := range rep.PerTenant {
		vrates = append(vrates, tr.ViolationRate)
		costs = append(costs, float64(tr.CostNodeSteps))
	}
	check := func(name string, got float64, xs []float64, p float64) {
		t.Helper()
		exact := percentile(xs, p)
		if exact == 0 {
			if got != 0 {
				t.Errorf("%s: sketch %v, exact 0", name, got)
			}
			return
		}
		if rel := math.Abs(got-exact) / math.Abs(exact); rel > obs.DefaultSketchAlpha {
			t.Errorf("%s: sketch %v vs sort-based %v (relative error %v > %v)",
				name, got, exact, rel, obs.DefaultSketchAlpha)
		}
	}
	check("violation_rate_p50", rep.ViolationRateP50, vrates, 50)
	check("violation_rate_p90", rep.ViolationRateP90, vrates, 90)
	check("violation_rate_p99", rep.ViolationRateP99, vrates, 99)
	check("cost_p50", rep.CostP50, costs, 50)
	check("cost_p90", rep.CostP90, costs, 90)
	check("cost_p99", rep.CostP99, costs, 99)

	// Worst-tenant lists are exact: they equal a brute-force sort over
	// the per-tenant records, largest first, ties in id order, zeros left
	// out.
	brute := func(value func(TenantReport) float64) []WorstTenant {
		var all []WorstTenant
		for _, tr := range rep.PerTenant {
			if v := value(tr); v > 0 {
				all = append(all, WorstTenant{ID: tr.ID, Value: v})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Value != all[j].Value {
				return all[i].Value > all[j].Value
			}
			return all[i].ID < all[j].ID
		})
		if len(all) > 8 {
			all = all[:8]
		}
		return all
	}
	if len(rep.WorstCost) != 8 {
		t.Fatalf("worst-cost list has %d entries, want 8", len(rep.WorstCost))
	}
	if want := brute(func(tr TenantReport) float64 { return float64(tr.CostNodeSteps) }); !reflect.DeepEqual(rep.WorstCost, want) {
		t.Errorf("worst-cost list %+v, brute force %+v", rep.WorstCost, want)
	}
	if want := brute(func(tr TenantReport) float64 { return float64(tr.Violations) }); !reflect.DeepEqual(rep.WorstViolations, want) {
		t.Errorf("worst-violations list %+v, brute force %+v", rep.WorstViolations, want)
	}
	if rep.Timing == nil || rep.Timing.Samples != rep.Rounds {
		t.Errorf("timing %+v, want one sample for each of %d rounds", rep.Timing, rep.Rounds)
	}

	// The lists are deterministic: an identical rerun reproduces them.
	rep2 := runFleet(t, cfg)
	if !reflect.DeepEqual(rep.WorstCost, rep2.WorstCost) ||
		!reflect.DeepEqual(rep.WorstViolations, rep2.WorstViolations) {
		t.Errorf("worst lists differ across reruns:\n%+v\nvs\n%+v", rep.WorstCost, rep2.WorstCost)
	}
}

// TestFleetHashInvariantUnderSLO pins the other acceptance criterion:
// enabling the health plane must not change a single allocation.
func TestFleetHashInvariantUnderSLO(t *testing.T) {
	off := testConfig(8)
	off.SLOTarget = 0
	on := testConfig(8)
	on.SLOTarget = 0.01
	on.SLOWindow = 16
	repOff := runFleet(t, off)
	for _, workers := range []int{1, 4} {
		cfg := on
		cfg.Workers = workers
		rep := runFleet(t, cfg)
		if rep.FleetHash != repOff.FleetHash {
			t.Fatalf("workers=%d: fleet hash %s with SLO enabled, %s disabled",
				workers, rep.FleetHash, repOff.FleetHash)
		}
		if rep.SLO == nil {
			t.Fatal("SLO status missing from report")
		}
		if rep.SLO.Tick != uint64(rep.Rounds) {
			t.Errorf("SLO observed %d ticks over %d rounds", rep.SLO.Tick, rep.Rounds)
		}
	}
	if repOff.SLO != nil {
		t.Error("disabled SLO plane still reported status")
	}
}

// TestFleetSLODeterministicAcrossWorkers pins alert determinism: the
// full SLO status (burn rates, firing ticks, transition counts) must be
// identical whatever the worker count.
func TestFleetSLODeterministicAcrossWorkers(t *testing.T) {
	var base *obs.SLOStatus
	for _, workers := range []int{1, 3} {
		cfg := testConfig(6)
		cfg.Workers = workers
		// A tight target so the replay actually consumes budget.
		cfg.SLOTarget = 0.001
		cfg.SLOWindow = 12
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := c.SLO().Status()
		if base == nil {
			base = &st
			continue
		}
		if *baseRules(base) != *baseRules(&st) || base.Tick != st.Tick ||
			base.WindowBad != st.WindowBad || base.Transitions != st.Transitions {
			t.Fatalf("workers=%d: SLO status diverged:\n%+v\nvs\n%+v", workers, *base, st)
		}
	}
}

// TestFleetSLOSurvivesRestart pins the error-budget durability contract:
// a kill-restart resumes the SLO tracker from tenant 0's checkpoint, so
// the completed run's budget accounting matches an uninterrupted run.
func TestFleetSLOSurvivesRestart(t *testing.T) {
	cfg := testConfig(4)
	cfg.SLOTarget = 0.001 // tight enough that the replay spends budget
	cfg.SLOWindow = 12

	run := func(c Config) (*Report, *obs.SLOTracker) {
		ctl, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ctl.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep, ctl.SLO()
	}

	_, refSLO := run(cfg)
	ref := refSLO.Status()

	dir := t.TempDir()
	phase1 := cfg
	phase1.StateDir = dir
	phase1.MaxRounds = 5
	run(phase1)

	phase2 := cfg
	phase2.StateDir = dir
	rep2, slo2 := run(phase2)
	if rep2.WarmStarts != cfg.Tenants {
		t.Fatalf("phase 2 warm-started %d/%d tenants", rep2.WarmStarts, cfg.Tenants)
	}
	got := slo2.Status()
	if got.Tick != ref.Tick || got.Bad != ref.Bad || got.Total != ref.Total ||
		got.WindowBad != ref.WindowBad || got.Transitions != ref.Transitions {
		t.Errorf("restarted SLO state diverged:\n%+v\nvs uninterrupted\n%+v", got, ref)
	}
	f1, ok1 := refSLO.FirstFiring()
	f2, ok2 := slo2.FirstFiring()
	if ok1 != ok2 || f1 != f2 {
		t.Errorf("first firing tick diverged: %d/%v vs %d/%v", f1, ok1, f2, ok2)
	}
}

// baseRules projects the comparable core of a status (rules summarized
// by firing state and first-fire tick).
func baseRules(st *obs.SLOStatus) *struct {
	Bad, Total uint64
	FirstFires [2]uint64
} {
	out := &struct {
		Bad, Total uint64
		FirstFires [2]uint64
	}{Bad: st.Bad, Total: st.Total}
	for i, r := range st.Rules {
		if i < 2 {
			out.FirstFires[i] = r.FirstFireTick
		}
	}
	return out
}
