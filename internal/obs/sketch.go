package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"

	"robustscale/internal/wire"
)

// DefaultSketchAlpha is the relative accuracy the health plane uses for
// its distribution sketches: every quantile estimate is within ±1% of
// the true sample value at that rank.
const DefaultSketchAlpha = 0.01

// sketchZeroCutoff is the magnitude below which an observation counts as
// exactly zero. Log-bucketed sketches cannot index arbitrarily small
// values with bounded memory; anything this small is zero for every
// signal the control plane tracks (rates, costs, latencies).
const sketchZeroCutoff = 1e-12

// Sketch is a deterministic, mergeable quantile sketch with bounded
// relative error (DDSketch-style). Observations land in logarithmic
// buckets of width γ = (1+α)/(1-α); a quantile query returns the bucket
// midpoint, which is within ±α of the true sample value at that rank.
// Memory is O(distinct buckets) — for α = 1%, a signal spanning six
// decades needs under 700 buckets — independent of the observation
// count, so a 10k-tenant fleet can keep per-shard distributions without
// ever materializing (or sorting) per-tenant slices.
//
// Two sketches with the same α merge exactly: Merge adds bucket counts,
// so Observe-then-Merge in any grouping yields the same buckets as
// observing everything into one sketch. All methods are safe for
// concurrent use; determinism of query results requires only that the
// multiset of observations is deterministic (order never matters).
type Sketch struct {
	mu    sync.Mutex
	alpha float64
	gamma float64 // (1+α)/(1-α)
	lnG   float64 // ln(γ), cached for indexing
	zero  uint64  // observations with |v| <= sketchZeroCutoff
	pos   map[int32]uint64
	neg   map[int32]uint64
	count uint64
	sum   float64
	min   float64
	max   float64
}

// NewSketch returns an empty sketch with the given relative accuracy
// α ∈ (0, 1); out-of-range values panic (a programming error, like a
// bad histogram bucket grid).
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("obs: sketch relative accuracy %v outside (0, 1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha: alpha, gamma: gamma, lnG: math.Log(gamma),
		pos: map[int32]uint64{}, neg: map[int32]uint64{},
	}
}

// RelativeAccuracy returns the sketch's configured α.
func (s *Sketch) RelativeAccuracy() float64 { return s.alpha }

// key maps a positive magnitude to its bucket index: bucket i covers
// (γ^(i-1), γ^i], so the midpoint estimator 2γ^i/(γ+1) is within ±α of
// every value in the bucket.
func (s *Sketch) key(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / s.lnG))
}

// value returns the midpoint estimate of bucket i, clamped to the
// finite range (the MaxFloat64 bucket's upper edge overflows).
func (s *Sketch) value(key int32) float64 {
	v := 2 * math.Pow(s.gamma, float64(key)) / (s.gamma + 1)
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// Observe records one value. NaN is ignored (a poisoned sample must not
// poison the distribution); ±Inf are clamped into the extreme buckets of
// the largest finite magnitude.
func (s *Sketch) Observe(v float64) { s.ObserveN(v, 1) }

// ObserveN records a value n times in O(1).
func (s *Sketch) ObserveN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 0) {
		v = math.Copysign(math.MaxFloat64, v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count += n
	s.sum += v * float64(n)
	switch {
	case v > sketchZeroCutoff:
		s.pos[s.key(v)] += n
	case v < -sketchZeroCutoff:
		s.neg[s.key(-v)] += n
	default:
		s.zero += n
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Sum returns the sum of all observations.
func (s *Sketch) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Min returns the smallest observation (0 when empty).
func (s *Sketch) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Buckets returns how many distinct buckets the sketch occupies — its
// memory footprint in units of one (key, count) pair.
func (s *Sketch) Buckets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.pos) + len(s.neg)
	if s.zero > 0 {
		n++
	}
	return n
}

// Merge folds another sketch into the receiver. Both must share the
// same relative accuracy; merging is exact (bucket counts add), so the
// result is independent of how observations were grouped.
func (s *Sketch) Merge(o *Sketch) error {
	if s == o {
		return fmt.Errorf("obs: cannot merge a sketch into itself")
	}
	snap := o.Snapshot()
	if snap.Alpha != s.alpha {
		return fmt.Errorf("obs: merging sketch with relative accuracy %v into %v", snap.Alpha, s.alpha)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Count == 0 {
		return nil
	}
	if s.count == 0 || snap.Min < s.min {
		s.min = snap.Min
	}
	if s.count == 0 || snap.Max > s.max {
		s.max = snap.Max
	}
	s.count += snap.Count
	s.sum += snap.Sum
	s.zero += snap.Zero
	for i, k := range snap.PosKeys {
		s.pos[k] += snap.PosCounts[i]
	}
	for i, k := range snap.NegKeys {
		s.neg[k] += snap.NegCounts[i]
	}
	return nil
}

// Quantile returns the estimate for q ∈ [0, 1]; see Percentile.
func (s *Sketch) Quantile(q float64) float64 { return s.Percentile(q * 100) }

// Percentile returns the nearest-rank percentile estimate (p in
// (0, 100]), using the same rank rule as a sorted-slice nearest-rank
// percentile — rank = round(p/100·n) − 1, clamped — so the sketch answer
// is within ±α (relative) of the exact sorted-based answer for the same
// sample. Returns 0 on an empty sketch.
func (s *Sketch) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0
	}
	rank := int64(p/100*float64(s.count)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= int64(s.count) {
		rank = int64(s.count) - 1
	}
	// Ascending walk: negative buckets from the largest magnitude down,
	// then zero, then positive buckets up.
	var cum int64
	negKeys := sortedKeys(s.neg)
	for i := len(negKeys) - 1; i >= 0; i-- {
		cum += int64(s.neg[negKeys[i]])
		if cum > rank {
			return -s.value(negKeys[i])
		}
	}
	cum += int64(s.zero)
	if cum > rank {
		return 0
	}
	posKeys := sortedKeys(s.pos)
	for _, k := range posKeys {
		cum += int64(s.pos[k])
		if cum > rank {
			return s.value(k)
		}
	}
	return s.max // unreachable unless counts drifted; fail soft
}

func sortedKeys(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// SketchSnapshot is a point-in-time copy of a sketch's buckets with keys
// sorted ascending — deterministic, and what Save writes (map iteration
// order never leaks into the encoding).
type SketchSnapshot struct {
	Alpha     float64
	Count     uint64
	Sum       float64
	Min, Max  float64
	Zero      uint64
	PosKeys   []int32
	PosCounts []uint64
	NegKeys   []int32
	NegCounts []uint64
}

// Snapshot returns a deterministic copy of the sketch contents.
func (s *Sketch) Snapshot() SketchSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SketchSnapshot{
		Alpha: s.alpha, Count: s.count, Sum: s.sum,
		Min: s.min, Max: s.max, Zero: s.zero,
	}
	snap.PosKeys = sortedKeys(s.pos)
	snap.PosCounts = make([]uint64, len(snap.PosKeys))
	for i, k := range snap.PosKeys {
		snap.PosCounts[i] = s.pos[k]
	}
	snap.NegKeys = sortedKeys(s.neg)
	snap.NegCounts = make([]uint64, len(snap.NegKeys))
	for i, k := range snap.NegKeys {
		snap.NegCounts[i] = s.neg[k]
	}
	return snap
}

// Save writes the sketch's snapshot, bucket keys ascending (layout in
// DESIGN.md §8).
func (s *Sketch) Save(w io.Writer) error {
	snap := s.Snapshot()
	b := wire.AppendFloat(wire.Scratch(w), snap.Alpha)
	b = binary.AppendUvarint(b, snap.Count)
	b = wire.AppendFloat(b, snap.Sum)
	b = wire.AppendFloat(b, snap.Min)
	b = wire.AppendFloat(b, snap.Max)
	b = binary.AppendUvarint(b, snap.Zero)
	b = appendBuckets(b, snap.PosKeys, snap.PosCounts)
	b = appendBuckets(b, snap.NegKeys, snap.NegCounts)
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("obs: saving sketch: %w", err)
	}
	return nil
}

func appendBuckets(b []byte, keys []int32, counts []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for i, k := range keys {
		b = binary.AppendUvarint(binary.AppendVarint(b, int64(k)), counts[i])
	}
	return b
}

// readBuckets is appendBuckets' inverse; keys must ascend strictly, so a
// blob that loads is one Save could have written.
func readBuckets(rd *wire.Reader) map[int32]uint64 {
	n := rd.Count(2) // a bucket is at least a key byte and a count byte
	m := make(map[int32]uint64, n)
	prev := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k, c := rd.Varint(), rd.Uvarint()
		if k <= prev || k != int64(int32(k)) {
			rd.Fail(fmt.Errorf("bucket key %d out of order or range", k))
		}
		if c == 0 {
			rd.Fail(fmt.Errorf("bucket key %d has count 0", k))
		}
		m[int32(k)], prev = c, k
	}
	return m
}

// Load replaces the receiver's contents with a snapshot written by Save.
// The snapshot's relative accuracy must match the receiver's, and its
// counts must agree: the count is the zero count plus every bucket's, no
// bucket is empty, and a non-empty sketch has min <= max.
func (s *Sketch) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	alpha, count := rd.Float(), rd.Uvarint()
	sum, lo, hi, zero := rd.Float(), rd.Float(), rd.Float(), rd.Uvarint()
	pos, neg := readBuckets(&rd), readBuckets(&rd)
	if err := rd.Done(); err != nil {
		return fmt.Errorf("obs: loading sketch: %w", err)
	}
	if alpha != s.alpha {
		return fmt.Errorf("obs: sketch snapshot has relative accuracy %v, receiver %v", alpha, s.alpha)
	}
	total, overflow := zero, uint64(0)
	for _, m := range [...]map[int32]uint64{pos, neg} {
		for _, c := range m {
			var carry uint64
			total, carry = bits.Add64(total, c, 0)
			overflow |= carry
		}
	}
	if overflow != 0 || total != count {
		return fmt.Errorf("obs: sketch snapshot count %d is not its zero count plus its bucket counts", count)
	}
	if count > 0 && lo > hi {
		return fmt.Errorf("obs: sketch snapshot min %v exceeds max %v", lo, hi)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zero, s.count, s.sum = zero, count, sum
	s.min, s.max = lo, hi
	s.pos, s.neg = pos, neg
	return nil
}
