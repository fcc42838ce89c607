package fleet

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

func classesFor(n int) []PriorityClass {
	out := make([]PriorityClass, n)
	for i := range out {
		out[i] = ClassOf(i)
	}
	return out
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func TestAdmitStepUnderCapacityPassesThrough(t *testing.T) {
	demands := []int{3, 5, 2, 4}
	got := admitStep(demands, classesFor(4), 100, nil)
	for i, d := range demands {
		if got[i] != d {
			t.Errorf("admitted[%d] = %d, want untouched %d", i, got[i], d)
		}
	}
}

func TestAdmitStepShedsBestEffortFirst(t *testing.T) {
	// Indices 0..5: classes cycle guaranteed, burstable, best-effort.
	demands := []int{10, 10, 10, 10, 10, 10} // 20 per class, 60 total
	classes := classesFor(6)
	// Capacity 45: shed 15, all from best-effort (indices 2 and 5).
	got := admitStep(demands, classes, 45, nil)
	if total := sum(got); total != 45 {
		t.Fatalf("admitted total %d, want 45", total)
	}
	if got[0] != 10 || got[3] != 10 || got[1] != 10 || got[4] != 10 {
		t.Errorf("guaranteed/burstable clipped before best-effort exhausted: %v", got)
	}
	if got[2]+got[5] != 5 {
		t.Errorf("best-effort should hold the remaining 5, got %v", got)
	}
	// Capacity 30: best-effort zeroed (20), burstable sheds 10 of 20.
	got = admitStep(demands, classes, 30, got)
	if got[2] != 0 || got[5] != 0 {
		t.Errorf("best-effort not zeroed under deeper shed: %v", got)
	}
	if got[0] != 10 || got[3] != 10 {
		t.Errorf("guaranteed clipped while burstable still had capacity: %v", got)
	}
	if got[1]+got[4] != 10 {
		t.Errorf("burstable should shed to 10 total, got %v", got)
	}
	// Capacity 12: only guaranteed survives, proportionally.
	got = admitStep(demands, classes, 12, got)
	if got[1] != 0 || got[4] != 0 || got[2] != 0 || got[5] != 0 {
		t.Errorf("lower classes not zeroed: %v", got)
	}
	if got[0]+got[3] != 12 {
		t.Errorf("guaranteed should share 12, got %v", got)
	}
}

func TestAdmitStepProportionalFairShare(t *testing.T) {
	// One class only: indices 2, 5, 8 are best-effort; the rest demand 0.
	demands := []int{0, 0, 30, 0, 0, 20, 0, 0, 10} // best-effort total 60
	classes := classesFor(9)
	got := admitStep(demands, classes, 30, nil)
	// Halved capacity: proportional split is exactly 15/10/5.
	if got[2] != 15 || got[5] != 10 || got[8] != 5 {
		t.Errorf("proportional split = %d/%d/%d, want 15/10/5", got[2], got[5], got[8])
	}
	// Remainders distribute deterministically: capacity 29 takes the node
	// from the largest fractional remainder.
	got = admitStep(demands, classes, 29, got)
	if sum(got) != 29 {
		t.Fatalf("admitted total %d, want 29", sum(got))
	}
	again := admitStep(demands, classes, 29, nil)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("largest-remainder split not deterministic: %v vs %v", got, again)
		}
	}
}

func TestAdmitStepNegativeAndZero(t *testing.T) {
	got := admitStep([]int{-5, 3, 2}, classesFor(3), 10, nil)
	if got[0] != 0 {
		t.Errorf("negative demand admitted %d, want 0", got[0])
	}
	got = admitStep([]int{4, 4, 4}, classesFor(3), 0, got)
	if sum(got) != 0 {
		t.Errorf("zero capacity admitted %v", got)
	}
	got = admitStep([]int{4, 4, 4}, classesFor(3), -7, got)
	if sum(got) != 0 {
		t.Errorf("negative capacity admitted %v", got)
	}
}

// The fleet-hash regression anchors: these values were produced by the
// pre-pool controller (PR 8) and pin the refactored plan/admit/apply
// path bit-for-bit. A fault-free run with no pool — or an unconstrained
// pool — must keep reproducing them.
const (
	goldenHash4 = "af5067c8c523a956"
	goldenHash8 = "4456542f790ea26b"
)

func TestFleetHashMatchesPrePoolGolden(t *testing.T) {
	for _, tc := range []struct {
		tenants    int
		hash       string
		violations int64
		cost       int64
	}{
		{4, goldenHash4, 10, 1828},
		{8, goldenHash8, 12, 3783},
	} {
		rep := runFleet(t, testConfig(tc.tenants))
		if rep.FleetHash != tc.hash {
			t.Errorf("%d tenants: fleet hash %s, want golden %s", tc.tenants, rep.FleetHash, tc.hash)
		}
		if rep.Violations != tc.violations || rep.CostNodeSteps != tc.cost {
			t.Errorf("%d tenants: violations/cost %d/%d, want %d/%d",
				tc.tenants, rep.Violations, rep.CostNodeSteps, tc.violations, tc.cost)
		}
	}
}

func TestUnconstrainedPoolIsBitIdentical(t *testing.T) {
	base := runFleet(t, testConfig(4))
	cfg := testConfig(4)
	cfg.PoolNodes = 1 << 20
	pooled := runFleet(t, cfg)
	if pooled.FleetHash != base.FleetHash {
		t.Errorf("unconstrained pool changed the fleet hash: %s vs %s", pooled.FleetHash, base.FleetHash)
	}
	if pooled.FleetHash != goldenHash4 {
		t.Errorf("unconstrained pooled hash %s, want golden %s", pooled.FleetHash, goldenHash4)
	}
	if pooled.Pool == nil {
		t.Fatal("pooled run should report the pool section")
	}
	if pooled.Pool.ShedNodes != 0 || pooled.Pool.AdmissionClips != 0 || pooled.Pool.Quarantines != 0 {
		t.Errorf("unconstrained pool shed something: %+v", pooled.Pool)
	}
	if base.Pool != nil {
		t.Error("pool-less run should not report a pool section")
	}
}

func TestConstrainedPoolShedsAndStaysDeterministic(t *testing.T) {
	cfg := testConfig(6)
	cfg.PoolNodes = 10 // well under aggregate demand
	a := runFleet(t, cfg)
	if a.Pool == nil || a.Pool.ShedNodes == 0 {
		t.Fatalf("constrained pool shed nothing: %+v", a.Pool)
	}
	// The quarantine breakers trip, so the run at four workers drives
	// them, each from the barrier that owns it, under the race detector.
	if a.Pool.Quarantines == 0 {
		t.Fatalf("premise: no tenant was quarantined: %+v", a.Pool)
	}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		b := runFleet(t, cfg)
		if b.FleetHash != a.FleetHash {
			t.Errorf("workers=%d: hash %s, want %s", workers, b.FleetHash, a.FleetHash)
		}
		if b.Pool.ShedNodes != a.Pool.ShedNodes || b.Pool.AdmissionClips != a.Pool.AdmissionClips ||
			b.Pool.Quarantines != a.Pool.Quarantines {
			t.Errorf("workers=%d: pool %+v, want %+v", workers, b.Pool, a.Pool)
		}
	}
	// Aggregate allocation never exceeds the pool: per-step sums are not
	// directly visible in the report, but total cost is bounded by
	// pool * steps-per-tenant... use per-tenant steps (identical tenants).
	var perTenantSteps int64
	for _, tr := range a.PerTenant {
		perTenantSteps = int64(tr.Steps)
		break
	}
	if a.CostNodeSteps > int64(cfg.PoolNodes)*perTenantSteps {
		t.Errorf("fleet cost %d exceeds pool budget %d over %d steps",
			a.CostNodeSteps, cfg.PoolNodes, perTenantSteps)
	}
}

// TestShedCounterRises: robustscale_fleet_shed_nodes_total counts every
// node a binding pool sheds, and a pool-less run sheds none.
func TestShedCounterRises(t *testing.T) {
	for _, pool := range []int{0, 10} {
		cfg := testConfig(6)
		cfg.PoolNodes = pool
		before := fleetShedNodesTotal.Value()
		rep := runFleet(t, cfg)
		var shed int64
		if rep.Pool != nil {
			shed = rep.Pool.ShedNodes
		}
		if rose := fleetShedNodesTotal.Value() - before; rose != float64(shed) || (pool > 0 && shed == 0) {
			t.Errorf("pool %d: the shed counter rose by %v, the report sheds %d nodes", pool, rose, shed)
		}
	}
}

func TestQuarantineTripsUnderSustainedPressure(t *testing.T) {
	cfg := testConfig(6)
	cfg.PoolNodes = 6 // sustained overload: every round clips
	rep := runFleet(t, cfg)
	if rep.Pool == nil {
		t.Fatal("no pool section")
	}
	if rep.Pool.Quarantines == 0 {
		t.Error("sustained overload should trip the backpressure breaker")
	}
	// Quarantine is journaled per tenant and surfaced in the report.
	found := false
	for _, tr := range rep.PerTenant {
		if tr.Quarantines > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no tenant reports a quarantine trip")
	}
}

func TestPoolClassesSurvivePressure(t *testing.T) {
	// Under moderate pressure, guaranteed tenants shed no more than
	// best-effort tenants in aggregate, with the backpressure breaker
	// quarantining as it does in every pooled fleet.
	cfg := testConfig(6)
	cfg.PoolNodes = 12
	rep := runFleet(t, cfg)
	if rep.Pool == nil || rep.Pool.ShedNodes == 0 {
		t.Skip("pool did not bind at this size")
	}
	var shed [3]int64
	for i, tr := range rep.PerTenant {
		shed[ClassOf(i)] += tr.ShedNodes
	}
	if shed[ClassGuaranteed] > shed[ClassBestEffort] {
		t.Errorf("guaranteed shed %d > best-effort shed %d", shed[ClassGuaranteed], shed[ClassBestEffort])
	}
}

// TestSelectTopMatchesSort holds admitStep's quickselect to the sort it
// replaced: on random remainders (a small spread, so the index tie-break
// decides, and a wide one) and a random k, the first k members it leaves are
// the first k that sorting by remainder descending, then index, gives.
func TestSelectTopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for c := 0; c < 5000; c++ {
		n := 1 + rng.Intn(90)
		spread := []int{3, 1 << 12}[c%2]
		rems := make([]int, 2*n)
		var members []int
		for i := range rems {
			rems[i] = rng.Intn(spread)
			if rng.Intn(2) == 0 {
				members = append(members, i)
			}
		}
		sorted := slices.Clone(members)
		slices.SortFunc(sorted, func(a, b int) int {
			return cmp.Or(cmp.Compare(rems[b], rems[a]), cmp.Compare(a, b))
		})
		k := rng.Intn(len(members) + 1)
		selectTop(members, rems, k)
		slices.Sort(members[:k])
		slices.Sort(members[k:])
		slices.Sort(sorted[:k])
		slices.Sort(sorted[k:])
		if !slices.Equal(members, sorted) {
			t.Fatalf("rems %v k %d: selected %v, sort %v", rems, k, members[:k], sorted[:k])
		}
	}
}
