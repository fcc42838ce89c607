package nn

import (
	"math"
	"math/rand"
	"testing"
)

// laneKernel is one of the lane kernels beside the math function it
// replays.
type laneKernel struct {
	name   string
	kernel func([]float64) int
	f      func(float64) float64
}

var (
	sinKernel = laneKernel{"sinLanes", sinLanes, math.Sin}
	logKernel = laneKernel{"logLanes", logLanes, math.Log}
	expKernel = laneKernel{"expLanes", expLanes, math.Exp}
)

// accepts runs k on a copy of xs, whose length is a multiple of four and
// every lane in k's domain: k must take every group, each lane f's bits.
func (k laneKernel) accepts(t *testing.T, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	if done := k.kernel(got); done != len(xs) {
		t.Fatalf("%s refused the group at %d (%v)", k.name, done, xs[done:min(done+4, len(xs))])
	}
	for i, v := range xs {
		if want := k.f(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s(%v) = %v (%#x), want %v (%#x)", k.name, v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// refuses puts each of bad in each lane of a group after an accepted one
// (1, 2, 3, 4): k must do the first group and leave the second untouched.
func (k laneKernel) refuses(t *testing.T, bad ...float64) {
	t.Helper()
	for _, b := range bad {
		for lane := 0; lane < 4; lane++ {
			group := []float64{1, 2, 3, 4, 0.5, 0.25, 0.125, 0.0625}
			group[4+lane] = b
			want := append([]float64(nil), group...)
			if done := k.kernel(group); done != 4 {
				t.Fatalf("%v in lane %d: %s did %d lanes, want 4 (the group before)", b, lane, k.name, done)
			}
			for i, v := range want[:4] {
				if math.Float64bits(group[i]) != math.Float64bits(k.f(v)) {
					t.Fatalf("%v in lane %d: %s's first group lane %d is %v, want %v", b, lane, k.name, i, group[i], k.f(v))
				}
			}
			for i, v := range group[4:] {
				if math.Float64bits(v) != math.Float64bits(want[4+i]) {
					t.Fatalf("%v in lane %d: %s's refused group changed lane %d to %v", b, lane, k.name, i, v)
				}
			}
		}
	}
}

// random holds k to f on total lanes drawn by gen, a batch at a time.
func (k laneKernel) random(t *testing.T, total int, gen func(i int) float64) {
	t.Helper()
	const batch = 1024
	xs := make([]float64, batch)
	for done := 0; done < total; done += batch {
		for i := range xs {
			xs[i] = gen(i)
		}
		k.accepts(t, xs)
	}
}

// pad4 repeats xs's first lanes to a multiple of four.
func pad4(xs []float64) []float64 {
	for len(xs)%4 != 0 {
		xs = append(xs, xs[len(xs)%4])
	}
	return xs
}

// TestExpLanesMatchMathExp holds the EXP macro, which gateLanes takes
// its exps with, to math.Exp bit for bit through expLanes: on 10⁷ inputs
// across [-708, 709], most of them where the gates' arguments lie, and at
// the range's edges. expLanes must refuse a group holding a lane outside
// that range or a NaN.
func TestExpLanesMatchMathExp(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels off")
	}
	expKernel.accepts(t, []float64{-708, 709, -707.9999999999999, 708.9999999999999, 0, math.Copysign(0, -1),
		0x1p-1074, -0x1p-1074, 1.25, 88.02969193111305, -1, 1})
	expKernel.refuses(t, -708.0000000000001, 709.0000000000001, 710, -1e300, math.Inf(1), math.Inf(-1), math.NaN())

	// Four in five inputs fall where the gates' arguments do (|x| < 90),
	// the rest anywhere in range.
	rng := rand.New(rand.NewSource(27))
	expKernel.random(t, 10_000_000, func(i int) float64 {
		if i%5 == 0 {
			return -708 + rng.Float64()*1417
		}
		return (rng.Float64()*2 - 1) * 90
	})
}

// TestSinLanesMatchMathSin holds sinLanes to math.Sin bit for bit: at ±0,
// subnormals, ±1, both sides of odd and even multiples of Pi/4 (where j
// and its round-up change), and 1<<29 less one ulp, the largest lane
// accepted; on 10⁶ random lanes, half over the diurnal and weekly
// arguments Generate takes (a few weeks' radians of either sign), the rest
// of any magnitude below 1<<29. It must refuse 1<<29, the float after it,
// NaN and ±Inf.
func TestSinLanesMatchMathSin(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels off")
	}
	const limit = 1 << 29
	edges := []float64{0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074, 0x1p-1030, -math.Float64frombits(1<<52 - 1),
		1, -1, math.Nextafter(limit, 0), -math.Nextafter(limit, 0), 0x1p-27, 1e-300}
	for j := 1; j <= 17; j++ {
		b := float64(j) * math.Pi / 4
		edges = append(edges, b, -b, math.Nextafter(b, 0), math.Nextafter(b, 100))
	}
	for _, b := range []float64{1e6, 12345678.9, limit / 3} {
		b = math.Floor(b*(4/math.Pi)) * (math.Pi / 4)
		edges = append(edges, b, math.Nextafter(b, 0), -math.Nextafter(b, limit))
	}
	sinKernel.accepts(t, pad4(edges))
	sinKernel.refuses(t, limit, -limit, math.Nextafter(limit, math.Inf(1)), 1e300, math.NaN(), math.Inf(1), math.Inf(-1))

	rng := rand.New(rand.NewSource(59))
	sinKernel.random(t, 1_000_000, func(i int) float64 {
		if i%2 == 0 {
			return (rng.Float64()*2 - 1) * 200
		}
		return math.Copysign(math.Exp2(rng.Float64()*29), rng.Float64()-0.5) * (1 - 0x1p-53)
	})
}

// TestLogLanesMatchMathLog holds logLanes to math.Log bit for bit: at 1
// and its neighbours, Sqrt2/2 and its neighbours (where k and f1 change),
// the powers of two, the smallest and largest subnormals and normals, and
// MaxFloat64; on 10⁶ random lanes, half uniform in (0, 1] as ramp's |s|
// is, the rest any positive finite bit pattern. It must refuse ±0, a
// negative lane, NaN and ±Inf.
func TestLogLanesMatchMathLog(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels off")
	}
	edges := []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2), math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0),
		math.Nextafter(math.Sqrt2/2, 1), math.Sqrt2, 0x1p-1074, math.Float64frombits(1<<52 - 1), 0x1p-1022,
		math.MaxFloat64, 0.5, 2, 0x1p-1060, 10, 1e300}
	for e := -1074; e <= 1023; e += 37 {
		edges = append(edges, math.Ldexp(1, e))
	}
	logKernel.accepts(t, pad4(edges))
	logKernel.refuses(t, 0, math.Copysign(0, -1), -1, -0x1p-1074, math.NaN(), math.Inf(1), math.Inf(-1))

	rng := rand.New(rand.NewSource(60))
	logKernel.random(t, 1_000_000, func(i int) float64 {
		if i%2 == 0 {
			return 1 - rng.Float64() // (0, 1]
		}
		return math.Float64frombits(1 + rng.Uint64()%(math.Float64bits(math.MaxFloat64)))
	})
}
