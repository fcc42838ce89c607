package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQuantileLoss(t *testing.T) {
	// Underestimate by 2 at tau=0.9: loss = 0.9*2.
	ql, err := QuantileLoss(0.9, []float64{10}, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ql, 1.8, 1e-12) {
		t.Errorf("QL = %v", ql)
	}
	// Sums over steps.
	ql, err = QuantileLoss(0.5, []float64{10, 10}, []float64{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ql, 0.5*2+0.5*2, 1e-12) {
		t.Errorf("QL = %v", ql)
	}
	if _, err := QuantileLoss(0.5, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestWQL(t *testing.T) {
	w, err := WQL(0.9, []float64{10, 10}, []float64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	// QL = 0.9*2*2 = 3.6; wQL = 2*3.6/20 = 0.36.
	if !almost(w, 0.36, 1e-12) {
		t.Errorf("wQL = %v", w)
	}
	if _, err := WQL(0.9, []float64{0, 0}, []float64{0, 0}); err == nil {
		t.Error("zero target sum should fail")
	}
}

func TestMeanWQL(t *testing.T) {
	actual := []float64{10, 10}
	pred := map[float64][]float64{
		0.5: {10, 10},
		0.9: {8, 8},
	}
	m, err := MeanWQL([]float64{0.5, 0.9}, actual, func(tau float64) []float64 { return pred[tau] })
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m, (0+0.36)/2, 1e-12) {
		t.Errorf("meanWQL = %v", m)
	}
	if _, err := MeanWQL(nil, actual, nil); err == nil {
		t.Error("no levels should fail")
	}
}

func TestCoverage(t *testing.T) {
	c, err := Coverage([]float64{1, 2, 3, 4}, []float64{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c != 0.5 {
		t.Errorf("coverage = %v", c)
	}
	if _, err := Coverage(nil, nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Coverage([]float64{1}, []float64{}); err == nil {
		t.Error("mismatch should fail")
	}
}

func TestMSE(t *testing.T) {
	mse, err := MSE([]float64{1, 2}, []float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if mse != 2 {
		t.Errorf("MSE = %v", mse)
	}
	if _, err := MSE(nil, nil); err == nil {
		t.Error("empty MSE should fail")
	}
	if _, err := MSE([]float64{1}, nil); err == nil {
		t.Error("mismatched MSE should fail")
	}
}

func TestUncertaintyWiderIsLarger(t *testing.T) {
	levels := []float64{0.1, 0.5, 0.9}
	narrow, err := Uncertainty(levels, []float64{9, 10, 11}, 10)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Uncertainty(levels, []float64{5, 10, 15}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if wide <= narrow {
		t.Errorf("wide U %v should exceed narrow U %v", wide, narrow)
	}
	if narrow < 0 {
		t.Errorf("U should be non-negative, got %v", narrow)
	}
	if _, err := Uncertainty(levels, []float64{1}, 1); err == nil {
		t.Error("mismatched levels should fail")
	}
}

func TestUncertaintyNonNegativeProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		u, err := Uncertainty([]float64{0.2, 0.5, 0.8}, []float64{a, b, c}, b)
		return err == nil && u >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUncertaintyZeroForDegenerateFan(t *testing.T) {
	u, err := Uncertainty([]float64{0.1, 0.5, 0.9}, []float64{10, 10, 10}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if u != 0 {
		t.Errorf("degenerate fan U = %v", u)
	}
}

func TestProvisioning(t *testing.T) {
	// theta = 10. Step 0: w=25, c=2 -> 12.5 > 10: under. Step 1: w=25,
	// c=3: exact minimum. Step 2: w=25, c=5: over.
	r, err := Provisioning([]float64{25, 25, 25}, []int{2, 3, 5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.UnderProvisioned != 1 || r.OverProvisioned != 1 {
		t.Errorf("under=%d over=%d", r.UnderProvisioned, r.OverProvisioned)
	}
	if !almost(r.UnderProvisionRate, 1.0/3, 1e-12) || !almost(r.OverProvisionRate, 1.0/3, 1e-12) {
		t.Errorf("rates = %v / %v", r.UnderProvisionRate, r.OverProvisionRate)
	}
	if r.TotalNodes != 10 || r.TotalMinimumNodes != 9 {
		t.Errorf("totals = %d / %d", r.TotalNodes, r.TotalMinimumNodes)
	}
	if r.Steps != 3 {
		t.Errorf("steps = %d", r.Steps)
	}
}

func TestProvisioningValidation(t *testing.T) {
	if _, err := Provisioning([]float64{1}, []int{1, 2}, 10); err == nil {
		t.Error("mismatch should fail")
	}
	if _, err := Provisioning(nil, nil, 10); err == nil {
		t.Error("empty should fail")
	}
	if _, err := Provisioning([]float64{1}, []int{1}, 0); err == nil {
		t.Error("zero theta should fail")
	}
}

func TestProvisioningClampsZeroAllocation(t *testing.T) {
	r, err := Provisioning([]float64{5}, []int{0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Zero allocation treated as one node; 5/1 <= 10, not under.
	if r.UnderProvisioned != 0 {
		t.Errorf("under = %d", r.UnderProvisioned)
	}
}

func TestMinNodes(t *testing.T) {
	cases := []struct {
		w, theta float64
		want     int
	}{
		{0, 10, 1},
		{-5, 10, 1},
		{5, 10, 1},
		{10, 10, 1},
		{10.01, 10, 2},
		{25, 10, 3},
		{30, 10, 3},
	}
	for _, c := range cases {
		if got := MinNodes(c.w, c.theta); got != c.want {
			t.Errorf("MinNodes(%v, %v) = %d, want %d", c.w, c.theta, got, c.want)
		}
	}
}

func TestMinNodesSatisfiesConstraintProperty(t *testing.T) {
	f := func(wRaw, thetaRaw float64) bool {
		if math.IsNaN(wRaw) || math.IsInf(wRaw, 0) || math.IsNaN(thetaRaw) || math.IsInf(thetaRaw, 0) {
			return true
		}
		w := math.Abs(math.Mod(wRaw, 1e6))
		theta := 1 + math.Abs(math.Mod(thetaRaw, 100))
		c := MinNodes(w, theta)
		if c < 1 {
			return false
		}
		// Constraint satisfied.
		if w/float64(c) > theta {
			return false
		}
		// Minimality: one fewer node violates it (when c > 1).
		if c > 1 && w/float64(c-1) <= theta {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
