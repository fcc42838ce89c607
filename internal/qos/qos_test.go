package qos

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: P(wait) = rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		got, err := ErlangC(rho, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-rho) > 1e-12 {
			t.Errorf("ErlangC(%v, 1) = %v, want %v", rho, got, rho)
		}
	}
	// Known tabulated value: a=2, c=3 -> ~0.4444.
	got, err := ErlangC(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.0/9.0) > 1e-9 {
		t.Errorf("ErlangC(2, 3) = %v, want 4/9", got)
	}
}

func TestErlangCBoundaries(t *testing.T) {
	if got, _ := ErlangC(5, 3); got != 1 {
		t.Errorf("saturated ErlangC = %v, want 1", got)
	}
	if got, _ := ErlangC(0, 3); got != 0 {
		t.Errorf("idle ErlangC = %v, want 0", got)
	}
	if _, err := ErlangC(-1, 3); err == nil {
		t.Error("negative load should fail")
	}
	if _, err := ErlangC(1, 0); err == nil {
		t.Error("zero workers should fail")
	}
}

func TestErlangCMonotoneInLoad(t *testing.T) {
	f := func(seed uint16) bool {
		c := 1 + int(seed)%16
		prev := -1.0
		for a := 0.0; a < float64(c); a += float64(c) / 20 {
			p, err := ErlangC(a, c)
			if err != nil || p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeLatencyM_M_1(t *testing.T) {
	// M/M/1 mean response time = 1/(mu - lambda).
	n := Node{ServiceRate: 10, Workers: 1}
	l, err := NodeLatency(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / (10 - 5) // 200ms
	if math.Abs(l.Mean.Seconds()-want) > 1e-9 {
		t.Errorf("mean = %v, want %vs", l.Mean, want)
	}
	if l.Utilization != 0.5 {
		t.Errorf("utilization = %v", l.Utilization)
	}
	// M/M/1 response time is exponential(mu - lambda): p99 = ln(100)/(mu-lambda).
	wantP99 := math.Log(100) / 5
	if math.Abs(l.P99.Seconds()-wantP99) > 1e-6 {
		t.Errorf("p99 = %v, want %vs", l.P99, wantP99)
	}
}

func TestNodeLatencyGrowsWithLoad(t *testing.T) {
	n := Node{ServiceRate: 100, Workers: 8}
	prev := time.Duration(0)
	for _, rate := range []float64{100, 300, 500, 700, 780} {
		l, err := NodeLatency(n, rate)
		if err != nil {
			t.Fatal(err)
		}
		if l.P99 <= prev {
			t.Errorf("p99 not increasing at rate %v: %v <= %v", rate, l.P99, prev)
		}
		if l.P95 > l.P99 {
			t.Errorf("p95 %v above p99 %v", l.P95, l.P99)
		}
		prev = l.P99
	}
}

func TestNodeLatencySaturated(t *testing.T) {
	n := Node{ServiceRate: 10, Workers: 2}
	l, err := NodeLatency(n, 25)
	if err != nil {
		t.Fatal(err)
	}
	if l.Utilization < 1 {
		t.Errorf("utilization = %v", l.Utilization)
	}
	if l.Mean != time.Duration(math.MaxInt64) {
		t.Error("saturated mean should be infinite")
	}
}

func TestNodeLatencyValidation(t *testing.T) {
	if _, err := NodeLatency(Node{ServiceRate: 0, Workers: 1}, 1); err == nil {
		t.Error("zero service rate should fail")
	}
	if _, err := NodeLatency(Node{ServiceRate: 1, Workers: 0}, 1); err == nil {
		t.Error("zero workers should fail")
	}
	if _, err := NodeLatency(Node{ServiceRate: 1, Workers: 1}, -1); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestResponseTimeQuantileMatchesCDF(t *testing.T) {
	// Round-trip: for several loads, the returned quantile should sit
	// where the empirical simulation of the distribution puts it. Use
	// the analytic M/M/1 case as exact reference at several percentiles.
	mu := 20.0
	for _, lambda := range []float64{4, 10, 16} {
		a := lambda / mu
		pWait, err := ErlangC(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.5, 0.9, 0.99} {
			got := responseTimeQuantile(p, a, 1, mu, pWait)
			want := -math.Log(1-p) / (mu - lambda) // exponential quantile
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Errorf("lambda=%v p=%v: got %v want %v", lambda, p, got, want)
			}
		}
	}
}

func TestCalibrateTheta(t *testing.T) {
	n := Node{ServiceRate: 100, Workers: 8} // capacity 800 qps
	slo := SLO{Percentile: 0.99, Target: 50 * time.Millisecond}
	theta, err := CalibrateTheta(n, slo)
	if err != nil {
		t.Fatal(err)
	}
	if theta <= 0 || theta >= 800 {
		t.Fatalf("theta = %v, want in (0, 800)", theta)
	}
	// At theta the SLO holds; 10% above it should not.
	l, err := NodeLatency(n, theta)
	if err != nil {
		t.Fatal(err)
	}
	if l.P99 > slo.Target+time.Microsecond {
		t.Errorf("p99 at theta = %v exceeds target", l.P99)
	}
	over, err := NodeLatency(n, math.Min(theta*1.1, 799))
	if err != nil {
		t.Fatal(err)
	}
	if over.P99 <= slo.Target {
		t.Errorf("p99 just above theta = %v should exceed target", over.P99)
	}
}

func TestCalibrateThetaTighterSLOLowerTheta(t *testing.T) {
	n := Node{ServiceRate: 100, Workers: 8}
	loose, err := CalibrateTheta(n, SLO{Percentile: 0.99, Target: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := CalibrateTheta(n, SLO{Percentile: 0.99, Target: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if tight >= loose {
		t.Errorf("tight SLO theta %v should be below loose %v", tight, loose)
	}
	// Mean SLO (percentile below 0.95 uses the mean) also works.
	mean, err := CalibrateTheta(n, SLO{Percentile: 0.5, Target: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 {
		t.Errorf("mean-based theta = %v", mean)
	}
}

func TestCalibrateThetaUnattainable(t *testing.T) {
	// Service time alone is 10ms; a 1ms p99 target is impossible.
	n := Node{ServiceRate: 100, Workers: 4}
	if _, err := CalibrateTheta(n, SLO{Percentile: 0.99, Target: time.Millisecond}); err == nil {
		t.Error("unattainable SLO should fail")
	}
}

func TestCalibrateThetaValidation(t *testing.T) {
	n := Node{ServiceRate: 100, Workers: 4}
	if _, err := CalibrateTheta(n, SLO{Percentile: 0, Target: time.Second}); err == nil {
		t.Error("bad percentile should fail")
	}
	if _, err := CalibrateTheta(n, SLO{Percentile: 0.99, Target: 0}); err == nil {
		t.Error("zero target should fail")
	}
	if _, err := CalibrateTheta(Node{}, SLO{Percentile: 0.99, Target: time.Second}); err == nil {
		t.Error("bad node should fail")
	}
}
