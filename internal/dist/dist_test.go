package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"robustscale/internal/timeseries"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalMoments(t *testing.T) {
	n := NewNormal(3, 2)
	if n.Mean() != 3 {
		t.Errorf("Mean = %v", n.Mean())
	}
	if n.Variance() != 4 {
		t.Errorf("Variance = %v", n.Variance())
	}
}

func TestNormalPDFKnownValues(t *testing.T) {
	n := NewNormal(0, 1)
	if got := n.PDF(0); !almostEqual(got, 0.3989422804014327, 1e-12) {
		t.Errorf("PDF(0) = %v", got)
	}
	if got := n.PDF(1); !almostEqual(got, 0.24197072451914337, 1e-12) {
		t.Errorf("PDF(1) = %v", got)
	}
	if got := math.Exp(n.LogPDF(1.7)); !almostEqual(got, n.PDF(1.7), 1e-12) {
		t.Errorf("exp(LogPDF) = %v, PDF = %v", got, n.PDF(1.7))
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	n := NewNormal(5, 3)
	for _, p := range []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		x := n.Quantile(p)
		if got := n.CDF(x); !almostEqual(got, p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if got := n.Quantile(0.5); !almostEqual(got, 5, 1e-9) {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestNormalKnownQuantiles(t *testing.T) {
	n := NewNormal(0, 1)
	// Standard normal 97.5th percentile ~ 1.959964.
	if got := n.Quantile(0.975); !almostEqual(got, 1.959963984540054, 1e-9) {
		t.Errorf("Quantile(0.975) = %v", got)
	}
	if got := n.Quantile(0.9); !almostEqual(got, 1.2815515655446004, 1e-9) {
		t.Errorf("Quantile(0.9) = %v", got)
	}
}

func TestNormalSigmaFloor(t *testing.T) {
	n := NewNormal(0, -5)
	if n.Sigma <= 0 {
		t.Errorf("Sigma = %v, want positive floor", n.Sigma)
	}
}

func TestNormalSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNormal(10, 2)
	const N = 200000
	sum, ss := 0.0, 0.0
	for i := 0; i < N; i++ {
		v := n.Sample(rng)
		sum += v
		ss += v * v
	}
	mean := sum / N
	variance := ss/N - mean*mean
	if !almostEqual(mean, 10, 0.05) {
		t.Errorf("sample mean = %v", mean)
	}
	if !almostEqual(variance, 4, 0.1) {
		t.Errorf("sample variance = %v", variance)
	}
}

func TestStudentTMoments(t *testing.T) {
	st := NewStudentT(5, 1, 2)
	if st.Mean() != 1 {
		t.Errorf("Mean = %v", st.Mean())
	}
	// Var = sigma^2 * nu/(nu-2) = 4 * 5/3.
	if !almostEqual(st.Variance(), 4*5.0/3.0, 1e-12) {
		t.Errorf("Variance = %v", st.Variance())
	}
	heavy := NewStudentT(1.5, 0, 1)
	if !math.IsInf(heavy.Variance(), 1) {
		t.Errorf("nu=1.5 variance = %v, want +Inf", heavy.Variance())
	}
}

func TestStudentTPDFSymmetry(t *testing.T) {
	st := NewStudentT(4, 0, 1)
	for _, x := range []float64{0.5, 1, 2, 3.7} {
		if !almostEqual(st.PDF(x), st.PDF(-x), 1e-12) {
			t.Errorf("PDF not symmetric at %v", x)
		}
	}
	// Known value: t-dist nu=1 (Cauchy-like floor is 1.01, so use nu=2):
	// pdf(0) for nu=2 is 1/(2*sqrt(2)) = 0.35355...
	st2 := NewStudentT(2, 0, 1)
	if got := st2.PDF(0); !almostEqual(got, 0.35355339059327373, 1e-9) {
		t.Errorf("t2 PDF(0) = %v", got)
	}
}

func TestStudentTCDF(t *testing.T) {
	st := NewStudentT(10, 0, 1)
	if got := st.CDF(0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("CDF(0) = %v", got)
	}
	// t10 95th percentile = 1.8124611...
	if got := st.CDF(1.8124611228107335); !almostEqual(got, 0.95, 1e-7) {
		t.Errorf("CDF(t95) = %v", got)
	}
	// Symmetry: CDF(-x) = 1 - CDF(x).
	for _, x := range []float64{0.3, 1.1, 2.5} {
		if !almostEqual(st.CDF(-x), 1-st.CDF(x), 1e-10) {
			t.Errorf("CDF asymmetric at %v", x)
		}
	}
}

func TestStudentTQuantileRoundTrip(t *testing.T) {
	for _, nu := range []float64{2, 5, 30} {
		st := NewStudentT(nu, -1, 0.5)
		for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := st.Quantile(p)
			if got := st.CDF(x); !almostEqual(got, p, 1e-8) {
				t.Errorf("nu=%v: CDF(Quantile(%v)) = %v", nu, p, got)
			}
		}
	}
}

func TestStudentTQuantileExtremes(t *testing.T) {
	st := NewStudentT(5, 0, 1)
	if !math.IsInf(st.Quantile(0), -1) || !math.IsInf(st.Quantile(1), 1) {
		t.Error("Quantile(0)/Quantile(1) should be infinite")
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	// For large nu the Student-t converges to the normal.
	st := NewStudentT(1e6, 0, 1)
	n := NewNormal(0, 1)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.975} {
		if !almostEqual(st.Quantile(p), n.Quantile(p), 1e-3) {
			t.Errorf("p=%v: t quantile %v vs normal %v", p, st.Quantile(p), n.Quantile(p))
		}
	}
}

func TestStudentTSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := NewStudentT(8, 2, 1)
	const N = 200000
	sum := 0.0
	for i := 0; i < N; i++ {
		sum += st.Sample(rng)
	}
	if mean := sum / N; !almostEqual(mean, 2, 0.05) {
		t.Errorf("sample mean = %v", mean)
	}
}

func TestStudentTNuFloor(t *testing.T) {
	st := NewStudentT(0.5, 0, 1)
	if st.Nu < 1 {
		t.Errorf("Nu = %v, want floored above 1", st.Nu)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	x := 0.3
	want := 3*x*x - 2*x*x*x
	if got := RegIncBeta(2, 2, x); !almostEqual(got, want, 1e-12) {
		t.Errorf("I_0.3(2,2) = %v, want %v", got, want)
	}
	if got := RegIncBeta(3, 2, 0); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := RegIncBeta(3, 2, 1); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
}

func TestRegIncBetaMonotonic(t *testing.T) {
	f := func(seed uint8) bool {
		a := 0.5 + float64(seed%10)
		b := 0.5 + float64(seed/10%10)
		prev := -1.0
		for x := 0.0; x <= 1.0; x += 0.05 {
			v := RegIncBeta(a, b, x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftplus(t *testing.T) {
	if got := Softplus(0); !almostEqual(got, math.Log(2), 1e-12) {
		t.Errorf("Softplus(0) = %v", got)
	}
	if got := Softplus(100); !almostEqual(got, 100, 1e-9) {
		t.Errorf("Softplus(100) = %v", got)
	}
	if Softplus(-100) < 0 {
		t.Error("Softplus should be positive")
	}
	// Derivative is the sigmoid.
	if got := SoftplusDeriv(0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("SoftplusDeriv(0) = %v", got)
	}
}

func TestSortedMean(t *testing.T) {
	if got := SortedMean([]float64{2, 4, 6}); got != 4 || !math.IsNaN(SortedMean(nil)) {
		t.Errorf("SortedMean = %v, and NaN for no samples", got)
	}
}

func TestSortedQuantileMatchesGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := NewNormal(0, 1)
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = n.Sample(rng)
	}
	sort.Float64s(samples)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if got := timeseries.InterpolatedQuantile(samples, p); !almostEqual(got, n.Quantile(p), 0.02) {
			t.Errorf("p=%v: sample %v vs exact %v", p, got, n.Quantile(p))
		}
	}
}
