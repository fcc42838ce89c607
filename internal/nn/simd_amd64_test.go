package nn

import (
	"math"
	"math/rand"
	"testing"
)

// expLanes overwrites x four lanes at a time with gateLanes' exp; only
// this test calls it.
//
//go:noescape
func expLanes(x []float64) (done int)

// TestExpLanesMatchMathExp holds the EXP macro, which gateLanes takes
// its exps with, to math.Exp bit for bit through expLanes: on 10⁷ inputs
// across [-708, 709], most of them where the gates' arguments lie, and at
// the range's edges. expLanes must refuse a group holding a lane outside
// that range or a NaN.
func TestExpLanesMatchMathExp(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels off")
	}
	edges := []float64{-708, 709, -707.9999999999999, 708.9999999999999, 0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074, 1.25, 88.02969193111305, -1, 1}
	x := append([]float64(nil), edges...)
	if done := expLanes(x); done != len(x)&^3 {
		t.Fatalf("expLanes did %d of the %d edge lanes", done, len(x)&^3)
	}
	for i, v := range edges[:len(x)&^3] {
		if want := math.Exp(v); math.Float64bits(x[i]) != math.Float64bits(want) {
			t.Fatalf("expLanes(%v) = %v (%#x), want %v (%#x)", v, x[i], math.Float64bits(x[i]), want, math.Float64bits(want))
		}
	}

	for _, bad := range []float64{-708.0000000000001, 709.0000000000001, 710, -1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		for lane := 0; lane < 4; lane++ {
			group := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			group[4+lane] = bad
			want := append([]float64(nil), group...)
			if done := expLanes(group); done != 4 {
				t.Fatalf("%v in lane %d: expLanes did %d lanes, want 4 (the group before)", bad, lane, done)
			}
			if math.Float64bits(group[0]) != math.Float64bits(math.Exp(1)) {
				t.Fatalf("lane 0 is %v, want e", group[0])
			}
			for i, v := range group[4:] {
				if math.Float64bits(v) != math.Float64bits(want[4+i]) {
					t.Fatalf("%v in lane %d: refused group changed lane %d to %v", bad, lane, i, v)
				}
			}
		}
	}

	// Four in five inputs fall where the gates' arguments do (|x| < 90),
	// the rest anywhere in range.
	const total, batch = 10_000_000, 1024
	rng := rand.New(rand.NewSource(27))
	buf, src := make([]float64, batch), make([]float64, batch)
	for done := 0; done < total; done += batch {
		for i := range src {
			if i%5 == 0 {
				src[i] = -708 + rng.Float64()*1417
			} else {
				src[i] = (rng.Float64()*2 - 1) * 90
			}
		}
		copy(buf, src)
		if n := expLanes(buf); n != batch {
			t.Fatalf("expLanes refused an in-range group at %d (%v)", n, src[n:n+4])
		}
		for i, v := range src {
			if want := math.Exp(v); math.Float64bits(buf[i]) != math.Float64bits(want) {
				t.Fatalf("expLanes(%v) = %v (%#x), want %v (%#x)", v, buf[i], math.Float64bits(buf[i]), want, math.Float64bits(want))
			}
		}
	}
}
