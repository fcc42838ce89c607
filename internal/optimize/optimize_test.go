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
