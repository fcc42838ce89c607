package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocate(t *testing.T) {
	cases := []struct {
		w, theta float64
		want     int
	}{
		{0, 10, 1},
		{9, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{95, 10, 10},
		{100.5, 10, 11},
	}
	for _, c := range cases {
		if got := Allocate(c.w, c.theta); got != c.want {
			t.Errorf("Allocate(%v, %v) = %d, want %d", c.w, c.theta, got, c.want)
		}
	}
}

func TestPlan(t *testing.T) {
	plan, err := Plan([]float64{5, 15, 25}, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, w := range want {
		if plan[i] != w {
			t.Errorf("plan = %v", plan)
		}
	}
	if _, err := Plan([]float64{1}, 0); err == nil {
		t.Error("zero theta should fail")
	}
}

func TestPlanConstrainedMeetsDemandWhenPossible(t *testing.T) {
	// Demand ramps 1 -> 5 with MaxDelta 2: reachable each step.
	workload := []float64{10, 30, 50}
	plan, err := PlanConstrained(workload, 10, ThrashingConfig{Initial: 1, MaxDelta: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workload {
		need := Allocate(w, 10)
		if plan[i] < need {
			t.Errorf("step %d: plan %d < demand %d", i, plan[i], need)
		}
	}
	// Rate limit respected.
	prev := 1
	for i, c := range plan {
		if abs(c-prev) > 2 {
			t.Errorf("step %d: delta %d exceeds limit", i, abs(c-prev))
		}
		prev = c
	}
}

func TestPlanConstrainedPreScalesForSpike(t *testing.T) {
	// A sudden spike to 10 nodes with MaxDelta 3 forces earlier ramping.
	workload := []float64{10, 10, 10, 100}
	plan, err := PlanConstrained(workload, 10, ThrashingConfig{Initial: 1, MaxDelta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan[3] != 10 {
		t.Errorf("spike step plan = %d, want 10", plan[3])
	}
	if plan[2] < 7 {
		t.Errorf("pre-spike plan = %d, want >= 7 to reach 10 with delta 3", plan[2])
	}
}

func TestPlanConstrainedUnreachableDemandShortfalls(t *testing.T) {
	// Demand jumps immediately beyond reach; plan should get as close as
	// the constraint allows rather than failing.
	workload := []float64{100}
	plan, err := PlanConstrained(workload, 10, ThrashingConfig{Initial: 1, MaxDelta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan[0] != 3 {
		t.Errorf("plan = %v, want [3] (1 + maxDelta)", plan)
	}
}

func TestPlanConstrainedMatchesUnconstrainedWhenLoose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	workload := make([]float64, 30)
	for i := range workload {
		workload[i] = 20 + 30*rng.Float64()
	}
	free, err := Plan(workload, 10)
	if err != nil {
		t.Fatal(err)
	}
	constrained, err := PlanConstrained(workload, 10, ThrashingConfig{Initial: free[0], MaxDelta: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := range free {
		if free[i] != constrained[i] {
			t.Errorf("step %d: free %d vs constrained %d", i, free[i], constrained[i])
		}
	}
}

func TestPlanConstrainedValidation(t *testing.T) {
	if _, err := PlanConstrained([]float64{1}, 0, ThrashingConfig{MaxDelta: 1}); err == nil {
		t.Error("zero theta should fail")
	}
	if _, err := PlanConstrained([]float64{1}, 10, ThrashingConfig{MaxDelta: 0}); err == nil {
		t.Error("zero MaxDelta should fail")
	}
	plan, err := PlanConstrained(nil, 10, ThrashingConfig{MaxDelta: 1})
	if err != nil || plan != nil {
		t.Errorf("empty workload: %v %v", plan, err)
	}
}

func TestSolveSimplexKnownLP(t *testing.T) {
	// min x+y s.t. x >= 2, y >= 3, x+y >= 6 -> optimum 6 at e.g. (3,3).
	lp := LP{
		C: []float64{1, 1},
		A: [][]float64{{1, 0}, {0, 1}, {1, 1}},
		B: []float64{2, 3, 6},
	}
	x, obj, err := SolveSimplex(lp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-6) > 1e-6 {
		t.Errorf("objective = %v, want 6", obj)
	}
	if x[0] < 2-1e-9 || x[1] < 3-1e-9 {
		t.Errorf("x = %v violates bounds", x)
	}
}

func TestSolveSimplexUnbounded(t *testing.T) {
	// min -x s.t. x >= 0: unbounded below.
	lp := LP{C: []float64{-1}, A: [][]float64{{1}}, B: []float64{0}}
	if _, _, err := SolveSimplex(lp); err == nil {
		t.Error("unbounded LP should fail")
	}
}

func TestSolveSimplexInfeasible(t *testing.T) {
	// x >= 5 and -x >= -2 (x <= 2): infeasible.
	lp := LP{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{5, -2},
	}
	if _, _, err := SolveSimplex(lp); err == nil {
		t.Error("infeasible LP should fail")
	}
}

func TestSolveSimplexValidation(t *testing.T) {
	if _, _, err := SolveSimplex(LP{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}}); err == nil {
		t.Error("rhs mismatch should fail")
	}
	if _, _, err := SolveSimplex(LP{C: []float64{1, 2}, A: [][]float64{{1}}, B: []float64{1}}); err == nil {
		t.Error("row width mismatch should fail")
	}
}

func TestPlanLPMatchesClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 1 + rng.Intn(20)
		workload := make([]float64, h)
		for i := range workload {
			workload[i] = rng.Float64() * 200
		}
		closed, err := Plan(workload, 10)
		if err != nil {
			return false
		}
		viaLP, err := PlanLP(workload, 10)
		if err != nil {
			return false
		}
		for i := range closed {
			if closed[i] != viaLP[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPlanLPValidation(t *testing.T) {
	if _, err := PlanLP([]float64{1}, 0); err == nil {
		t.Error("zero theta should fail")
	}
	plan, err := PlanLP(nil, 10)
	if err != nil || plan != nil {
		t.Errorf("empty: %v %v", plan, err)
	}
}

func TestAllocateFeasibilityProperty(t *testing.T) {
	f := func(wRaw uint32, thetaRaw uint16) bool {
		w := float64(wRaw) / 100
		theta := 1 + float64(thetaRaw)/100
		c := Allocate(w, theta)
		return c >= 1 && w/float64(c) <= theta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// bruteConstrained is the oracle for PlanConstrainedDemand: it walks every
// node path whose steps move at most maxDelta from the one before (from
// initial on) and stay within [1, top], and returns the lexicographic
// minimum of (total shortfall, total nodes) over them.
func bruteConstrained(demand []int, initial, maxDelta, top int) (short, cost int64) {
	short, cost = math.MaxInt64, math.MaxInt64
	var walk func(t, prev int, s, c int64)
	walk = func(t, prev int, s, c int64) {
		if t == len(demand) {
			if s < short || s == short && c < cost {
				short, cost = s, c
			}
			return
		}
		for n := max(1, prev-maxDelta); n <= min(top, prev+maxDelta); n++ {
			walk(t+1, n, s+int64(max(0, demand[t]-n)), c+int64(n))
		}
	}
	walk(0, initial, 0, 0)
	return short, cost
}

// FuzzPlanConstrainedDemand holds the thrashing-constrained dynamic
// program to brute force on small instances: horizon up to 5, demand up
// to 6 nodes per step, Initial 1–7 and MaxDelta 1–3. The plan must keep at
// least one node, move at most MaxDelta per step from Initial on, and
// reach the (shortfall, cost) minimum of every path the oracle walks. The
// oracle's counts run to 16: a path above every demand and Initial only
// adds cost.
func FuzzPlanConstrainedDemand(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{6, 0, 6, 0, 6}) // spikes the rate limit cannot follow
	f.Add(uint8(5), uint8(2), []byte{0, 0, 1})       // scale-in from 6 with MaxDelta 3
	f.Add(uint8(2), uint8(1), []byte{3, 5, 6, 2, 1})
	f.Add(uint8(0), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, initial, delta uint8, raw []byte) {
		if len(raw) > 5 {
			raw = raw[:5]
		}
		demand := make([]int, len(raw))
		for i, b := range raw {
			demand[i] = int(b % 7)
		}
		cfg := ThrashingConfig{Initial: 1 + int(initial%7), MaxDelta: 1 + int(delta%3)}
		plan, err := PlanConstrainedDemand(demand, cfg)
		if err != nil {
			t.Fatalf("demand %v, %+v: %v", demand, cfg, err)
		}
		if len(plan) != len(demand) {
			t.Fatalf("demand %v, %+v: plan %v has %d steps", demand, cfg, plan, len(plan))
		}
		prev := cfg.Initial
		var short, cost int64
		for i, n := range plan {
			if n < 1 || n-prev > cfg.MaxDelta || prev-n > cfg.MaxDelta {
				t.Fatalf("demand %v, %+v: step %d goes %d -> %d", demand, cfg, i, prev, n)
			}
			short += int64(max(0, demand[i]-n))
			cost += int64(n)
			prev = n
		}
		wantShort, wantCost := bruteConstrained(demand, cfg.Initial, cfg.MaxDelta, 16)
		if short != wantShort || cost != wantCost {
			t.Fatalf("demand %v, %+v: plan %v has (shortfall %d, cost %d), brute force (%d, %d)",
				demand, cfg, plan, short, cost, wantShort, wantCost)
		}
	})
}
