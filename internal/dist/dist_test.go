package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"robustscale/internal/timeseries"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestNormalMoments reads the mean and standard deviation back through
// the quantile function: the median is Mu and the 84.13th percentile lies
// one Sigma above it.
func TestNormalMoments(t *testing.T) {
	n := NewNormal(3, 2)
	if got := n.Quantile(0.5); !almostEqual(got, 3, 1e-12) {
		t.Errorf("median = %v, want 3", got)
	}
	if got := n.Quantile(0.8413447460685429) - 3; !almostEqual(got, 2, 1e-9) {
		t.Errorf("one-sigma quantile offset = %v, want 2", got)
	}
}

// TestNormalPDFKnownValues checks the sampler's density against the
// standard normal's at 0 and 1: the share of draws in a narrow bin is
// about the density times the bin width.
func TestNormalPDFKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewNormal(0, 1)
	const draws, width = 400000, 0.1
	var at0, at1 int
	for i := 0; i < draws; i++ {
		switch v := n.Sample(rng); {
		case math.Abs(v) < width/2:
			at0++
		case math.Abs(v-1) < width/2:
			at1++
		}
	}
	for _, c := range []struct {
		x    float64
		hits int
		pdf  float64
	}{{0, at0, 0.3989422804014327}, {1, at1, 0.24197072451914337}} {
		if got := float64(c.hits) / draws / width; !almostEqual(got, c.pdf, 0.01) {
			t.Errorf("density near %v = %v, want %v", c.x, got, c.pdf)
		}
	}
}

// TestNormalCDFQuantileRoundTrip inverts Quantile with the closed-form
// Gaussian CDF.
func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	n := NewNormal(5, 3)
	cdf := func(x float64) float64 { return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2)) }
	for _, p := range []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		if got := cdf(n.Quantile(p)); !almostEqual(got, p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
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

// studentTSamples returns n sorted draws of t from a fixed seed.
func studentTSamples(st StudentT, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = st.Sample(rng)
	}
	sort.Float64s(xs)
	return xs
}

// below returns the fraction of the sorted samples xs below x.
func below(xs []float64, x float64) float64 {
	return float64(sort.SearchFloat64s(xs, x)) / float64(len(xs))
}

// TestStudentTMoments checks the sampler's variance against
// Sigma^2 * Nu/(Nu-2).
func TestStudentTMoments(t *testing.T) {
	xs := studentTSamples(NewStudentT(8, 1, 2), 200000, 3)
	sum, ss := 0.0, 0.0
	for _, v := range xs {
		sum += v
		ss += v * v
	}
	mean := sum / float64(len(xs))
	if v := ss/float64(len(xs)) - mean*mean; !almostEqual(v, 4*8.0/6.0, 0.1) {
		t.Errorf("sample variance = %v, want %v", v, 4*8.0/6.0)
	}
}

// TestStudentTPDFSymmetry checks that draws fall symmetrically about Mu.
func TestStudentTPDFSymmetry(t *testing.T) {
	xs := studentTSamples(NewStudentT(4, 2, 1), 200000, 4)
	for _, x := range []float64{0, 0.5, 1, 2, 3.7} {
		if lo, hi := below(xs, 2-x), 1-below(xs, 2+x); !almostEqual(lo, hi, 0.005) {
			t.Errorf("P(X < Mu-%v) = %v, P(X > Mu+%v) = %v", x, lo, x, hi)
		}
	}
}

// TestStudentTCDF checks the empirical CDF of the sampler at tabulated
// t10 quantiles.
func TestStudentTCDF(t *testing.T) {
	xs := studentTSamples(NewStudentT(10, 0, 1), 200000, 5)
	for _, c := range []struct{ x, p float64 }{
		{-1.812461122811673, 0.05}, {0, 0.5}, {1.3721836411103352, 0.9}, {2.7637694581147443, 0.99},
	} {
		if got := below(xs, c.x); !almostEqual(got, c.p, 0.003) {
			t.Errorf("P(X < %v) = %v, want %v", c.x, got, c.p)
		}
	}
}

// TestStudentTQuantileRoundTrip checks the sample quantiles of the
// sampler, the path DeepAR's fan takes, against tabulated Student-t
// quantiles of a shifted and scaled t.
func TestStudentTQuantileRoundTrip(t *testing.T) {
	for _, c := range []struct{ nu, q25, q90, q99 float64 }{
		{2, 0.816496580927726, 1.8856180831641256, 6.964556734283294},
		{5, 0.7266868438004229, 1.4758840488244773, 3.3649299989107906},
		{30, 0.6827556933212907, 1.310415025391394, 2.4572615424005924},
	} {
		xs := studentTSamples(NewStudentT(c.nu, -1, 0.5), 200000, 6)
		for _, q := range []struct{ p, want float64 }{
			{0.25, -c.q25}, {0.5, 0}, {0.75, c.q25}, {0.9, c.q90}, {0.99, c.q99},
		} {
			got := (timeseries.InterpolatedQuantile(xs, q.p) + 1) / 0.5
			if tol := 0.02 * (1 + math.Abs(q.want)); !almostEqual(got, q.want, tol) {
				t.Errorf("nu=%v: standardised sample quantile %v = %v, want %v", c.nu, q.p, got, q.want)
			}
		}
	}
}

// TestStudentTApproachesNormal: for large nu the sampler's quantiles are
// the normal's.
func TestStudentTApproachesNormal(t *testing.T) {
	xs := studentTSamples(NewStudentT(1e6, 0, 1), 200000, 7)
	n := NewNormal(0, 1)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.975} {
		if got := timeseries.InterpolatedQuantile(xs, p); !almostEqual(got, n.Quantile(p), 0.02) {
			t.Errorf("p=%v: sample quantile %v vs normal %v", p, got, n.Quantile(p))
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
