package dist

import "math/rand"

// Stream is math/rand's default source as a concrete generator: seeded
// with s it yields the values rand.New(rand.NewSource(s)) yields, bit for
// bit. Its Float64 inlines where a *rand.Rand calls its source through
// an interface, and its seeding allocates nothing. Make one with
// NewStream; like a *rand.Rand it is not safe for concurrent use. It is
// a rand.Source64.
type Stream struct {
	tap, feed int
	vec       [streamLen]int64
	// rand draws NormFloat64 and ExpFloat64 from this stream.
	rand *rand.Rand
}

// The additive lagged Fibonacci register of math/rand's source
// (Mitchell and Reeds), and the modulus of the generator that seeds it.
const (
	streamLen = 607
	streamTap = 273
	int32max  = 1<<31 - 1
)

// cooked is the table math/rand xors into the words of every seed. init
// recovers it from math/rand itself rather than keeping a copy: a seeded
// source's first streamLen outputs overwrite each register slot once,
// so undoing those steps leaves the register Seed built, and xoring out
// the seed's own words leaves the table.
var cooked [streamLen]int64

func init() {
	src := rand.NewSource(1).(rand.Source64)
	s := Stream{}
	s.Seed(1) // cooked is still zero: the register holds seed 1's words
	words := s.vec
	for range streamLen {
		s.Uint64()
		s.vec[s.feed] = int64(src.Uint64())
	}
	for range streamLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%streamLen, (s.feed+1)%streamLen
	}
	for i, w := range words {
		cooked[i] = s.vec[i] ^ w
	}
}

// NewStream returns the stream rand.New(rand.NewSource(seed)) draws.
func NewStream(seed int64) *Stream {
	s := &Stream{}
	s.rand = rand.New(s)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at the one rand.New(rand.NewSource(seed))
// draws. math/rand fills register slot i from its seeding generator's
// values 3i+21, 3i+22 and 3i+23; three chains, each stepping by 48271³,
// compute them without waiting on one another.
func (s *Stream) Seed(seed int64) {
	s.tap, s.feed = 0, streamLen-streamTap
	if seed %= int32max; seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for range 20 {
		x = mulmod(x, seedMul)
	}
	a := mulmod(x, seedMul)
	b := mulmod(a, seedMul)
	c := mulmod(b, seedMul)
	for i := range s.vec {
		s.vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ cooked[i]
		a, b, c = mulmod(a, seedMul3), mulmod(b, seedMul3), mulmod(c, seedMul3)
	}
}

// The seeding generator's multiplier, and its cube mod 2³¹−1.
const (
	seedMul  = 48271
	seedMul3 = 1291394886
)

// mulmod returns x·k mod (2³¹−1), for x and k in [1, 2³¹−2], by the
// Mersenne fold: 2³¹ ≡ 1, so the product's high bits add onto its low
// ones. mulmod(x, seedMul) is math/rand's seeding step, which computes
// the same by Schrage's division.
func mulmod(x, k int32) int32 {
	t := uint64(x) * uint64(k)
	t = t&int32max + t>>31 // below 2³²
	if t = t&int32max + t>>31; t >= int32max {
		t -= int32max
	}
	return int32(t)
}

// Uint64 returns the next 64 bits of the stream.
func (s *Stream) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += streamLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += streamLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer.
func (s *Stream) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Float64 returns a value in [0, 1), as rand.Rand.Float64 does.
func (s *Stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// NormFloat64 returns a standard normal value, drawn by
// rand.Rand.NormFloat64 from this stream.
func (s *Stream) NormFloat64() float64 { return s.rand.NormFloat64() }

// ExpFloat64 returns an exponential value of rate 1, drawn by
// rand.Rand.ExpFloat64 from this stream.
func (s *Stream) ExpFloat64() float64 { return s.rand.ExpFloat64() }
