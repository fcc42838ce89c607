package dist

import (
	"math"
	"math/rand"
	"testing"
)

// drawBoth draws the same method op (of five) from s and r and reports
// whether the two values carry the same bits.
func drawBoth(s *Stream, r *rand.Rand, op byte) (a, b uint64, same bool) {
	switch op % 5 {
	case 0:
		a, b = uint64(s.Int63()), uint64(r.Int63())
	case 1:
		a, b = s.Uint64(), r.Uint64()
	case 2:
		a, b = math.Float64bits(s.Float64()), math.Float64bits(r.Float64())
	case 3:
		a, b = math.Float64bits(s.NormFloat64()), math.Float64bits(r.NormFloat64())
	default:
		a, b = math.Float64bits(s.ExpFloat64()), math.Float64bits(r.ExpFloat64())
	}
	return a, b, a == b
}

// TestStreamMatchesMathRand reseeds one Stream for each seed (both ends
// of int64, 0 and math/rand's stand-in for it, both sides of the 2³¹−1
// modulus) and draws 10⁶ values of every kind, interleaved, against
// rand.New(rand.NewSource(seed)): every value must carry the same bits.
func TestStreamMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	s := NewStream(7)
	for _, seed := range []int64{0, 1, -1, 42, 1<<31 - 1, 1 << 31, 89482311, math.MinInt64, math.MaxInt64} {
		s.Seed(seed)
		r := rand.New(rand.NewSource(seed))
		for i := range draws {
			op := byte(uint64(i) * 0x9E3779B97F4A7C15 >> 56)
			if a, b, ok := drawBoth(s, r, op); !ok {
				t.Fatalf("seed %d, draw %d (kind %d): stream %#x, math/rand %#x", seed, i, op%5, a, b)
			}
		}
	}
}

// schrage is math/rand's seedrand: x·48271 mod (2³¹−1) by Schrage's
// method.
func schrage(x int32) int32 {
	const a, q, r = 48271, 44488, 3399
	hi, lo := x/q, x%q
	if x = a*lo - r*hi; x < 0 {
		x += int32max
	}
	return x
}

// TestMulmodMatchesSchrage holds the Mersenne fold to Schrage's form at
// both ends of [1, 2³¹−2] and at a stride across it, for one step of the
// seeding generator and for three. (Every value agrees; the exhaustive
// sweep takes seconds and is left out.)
func TestMulmodMatchesSchrage(t *testing.T) {
	check := func(x int32) {
		if got, want := mulmod(x, seedMul), schrage(x); got != want {
			t.Fatalf("mulmod(%d, 48271) = %d, Schrage's form gives %d", x, got, want)
		}
		if got, want := mulmod(x, seedMul3), schrage(schrage(schrage(x))); got != want {
			t.Fatalf("mulmod(%d, 48271³) = %d, three of Schrage's steps give %d", x, got, want)
		}
	}
	for x := int32(1); x <= 1<<16; x++ {
		check(x)
		check(int32max - x)
	}
	for x := int32(1 << 16); x < int32max-1<<16; x += 7919 {
		check(x)
	}
}

// FuzzStreamMatchesMathRand draws a fuzzer-chosen sequence of kinds from
// a Stream and from rand.New(rand.NewSource(seed)) at a fuzzer-chosen
// seed, after reseeding a Stream that has drawn from another seed.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4})
	f.Add(int64(-1), []byte{3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4})
	f.Add(int64(math.MinInt64), []byte{2, 4, 1, 0, 3})
	f.Add(int64(1<<31-1), []byte{4, 3, 2, 1, 0})
	s := NewStream(1)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		s.Seed(^seed)
		other := rand.New(rand.NewSource(^seed))
		for _, op := range ops {
			drawBoth(s, other, op)
		}
		s.Seed(seed)
		r := rand.New(rand.NewSource(seed))
		for i, op := range ops {
			for range 1 + int(op/5)%8 {
				if a, b, ok := drawBoth(s, r, op); !ok {
					t.Fatalf("seed %d, op %d (kind %d): stream %#x, math/rand %#x", seed, i, op%5, a, b)
				}
			}
		}
	})
}

// sink keeps BenchmarkStream's draws from being optimized away.
var sink float64

// BenchmarkStream times a uniform draw from a Stream and from a
// *rand.Rand over math/rand's source, and a reseed of each.
func BenchmarkStream(b *testing.B) {
	s, r := NewStream(1), rand.New(rand.NewSource(1))
	b.Run("Float64/stream", func(b *testing.B) {
		for range b.N {
			sink += s.Float64()
		}
	})
	b.Run("Float64/rand", func(b *testing.B) {
		for range b.N {
			sink += r.Float64()
		}
	})
	b.Run("Seed/stream", func(b *testing.B) {
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
	b.Run("Seed/rand", func(b *testing.B) {
		for i := range b.N {
			r.Seed(int64(i))
		}
	})
}
