package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"testing"

	"robustscale/internal/wire"
)

// sortPercentile is the repo-wide nearest-rank convention (see
// fleet.percentile): rank = round(p/100·n) − 1, clamped.
func sortPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sketchValues generates a deterministic pseudo-random positive sample
// spanning several decades, like fleet cost/latency signals.
func sketchValues(n int) []float64 {
	xs := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		u := float64(state%1_000_000) / 1_000_000
		xs[i] = math.Pow(10, -3+6*u) // 1e-3 .. 1e3
	}
	return xs
}

func TestSketchPercentileWithinAlpha(t *testing.T) {
	alpha := DefaultSketchAlpha
	xs := sketchValues(10000)
	s := NewSketch(alpha)
	for _, v := range xs {
		s.Observe(v)
	}
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
		exact := sortPercentile(xs, p)
		got := s.Percentile(p)
		if rel := math.Abs(got-exact) / exact; rel > alpha {
			t.Errorf("p%v: sketch %v vs exact %v, relative error %v > %v", p, got, exact, rel, alpha)
		}
	}
	if s.Count() != uint64(len(xs)) {
		t.Errorf("count = %d, want %d", s.Count(), len(xs))
	}
}

func TestSketchNegativeAndZero(t *testing.T) {
	s := NewSketch(0.01)
	xs := []float64{-100, -10, -1, 0, 0, 1, 10, 100}
	for _, v := range xs {
		s.Observe(v)
	}
	for _, p := range []float64{1, 25, 50, 75, 100} {
		exact := sortPercentile(xs, p)
		got := s.Percentile(p)
		if exact == 0 {
			if got != 0 {
				t.Errorf("p%v: got %v, want exactly 0", p, got)
			}
			continue
		}
		if rel := math.Abs(got-exact) / math.Abs(exact); rel > 0.01 {
			t.Errorf("p%v: sketch %v vs exact %v", p, got, exact)
		}
	}
	if s.Min() != -100 || s.Max() != 100 {
		t.Errorf("min/max = %v/%v, want -100/100", s.Min(), s.Max())
	}
}

func TestSketchMergeMatchesSingle(t *testing.T) {
	xs := sketchValues(5000)
	whole := NewSketch(0.01)
	for _, v := range xs {
		whole.Observe(v)
	}
	// Split into 7 shards observed separately, then merge.
	merged := NewSketch(0.01)
	for shard := 0; shard < 7; shard++ {
		part := NewSketch(0.01)
		for i := shard; i < len(xs); i += 7 {
			part.Observe(xs[i])
		}
		if err := merged.Merge(part); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	ws, ms := whole.Snapshot(), merged.Snapshot()
	if ws.Count != ms.Count || ws.Zero != ms.Zero {
		t.Fatalf("counts differ: %+v vs %+v", ws.Count, ms.Count)
	}
	if len(ws.PosKeys) != len(ms.PosKeys) {
		t.Fatalf("bucket sets differ: %d vs %d", len(ws.PosKeys), len(ms.PosKeys))
	}
	for i := range ws.PosKeys {
		if ws.PosKeys[i] != ms.PosKeys[i] || ws.PosCounts[i] != ms.PosCounts[i] {
			t.Fatalf("bucket %d differs: (%d,%d) vs (%d,%d)",
				i, ws.PosKeys[i], ws.PosCounts[i], ms.PosKeys[i], ms.PosCounts[i])
		}
	}
	for _, p := range []float64{50, 90, 99} {
		if whole.Percentile(p) != merged.Percentile(p) {
			t.Errorf("p%v differs after merge: %v vs %v", p, whole.Percentile(p), merged.Percentile(p))
		}
	}
}

func TestSketchMergeAlphaMismatch(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.02)
	if err := a.Merge(b); err == nil {
		t.Fatal("expected error merging sketches with different alpha")
	}
	if err := a.Merge(a); err == nil {
		t.Fatal("expected error merging a sketch into itself")
	}
}

func TestSketchSaveDeterministicAndRoundTrip(t *testing.T) {
	build := func() *Sketch {
		s := NewSketch(0.01)
		for _, v := range sketchValues(2000) {
			s.Observe(v)
		}
		s.Observe(0)
		s.Observe(-4.5)
		return s
	}
	var b1, b2 bytes.Buffer
	if err := build().Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("Save is not byte-deterministic across identical sketches")
	}
	orig := build()
	loaded := NewSketch(0.01)
	if err := loaded.Load(bytes.NewReader(b1.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{1, 50, 99} {
		if loaded.Percentile(p) != orig.Percentile(p) {
			t.Errorf("p%v differs after round-trip: %v vs %v", p, loaded.Percentile(p), orig.Percentile(p))
		}
	}
	if loaded.Count() != orig.Count() || loaded.Sum() != orig.Sum() {
		t.Error("count/sum differ after round-trip")
	}
	wrongAlpha := NewSketch(0.05)
	if err := wrongAlpha.Load(bytes.NewReader(b1.Bytes())); err == nil {
		t.Fatal("expected error loading snapshot with mismatched alpha")
	}
}

// encodeSnapshot writes snap in Save's layout, so a test can hand Load a
// blob Save would never write.
func encodeSnapshot(snap SketchSnapshot) []byte {
	b := wire.AppendFloat(nil, snap.Alpha)
	b = binary.AppendUvarint(b, snap.Count)
	b = wire.AppendFloat(b, snap.Sum)
	b = wire.AppendFloat(b, snap.Min)
	b = wire.AppendFloat(b, snap.Max)
	b = binary.AppendUvarint(b, snap.Zero)
	b = appendBuckets(b, snap.PosKeys, snap.PosCounts)
	return appendBuckets(b, snap.NegKeys, snap.NegCounts)
}

// TestSketchLoadRejectsInconsistentCounts: a blob whose count disagrees
// with its buckets, with an empty bucket or with min above max is refused
// with an error naming the problem, and the receiver keeps its contents.
// Loaded, the first would send Percentile's rank walk past every bucket.
func TestSketchLoadRejectsInconsistentCounts(t *testing.T) {
	five := NewSketch(0.01)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		five.Observe(v)
	}
	cases := []struct {
		name  string
		patch func(*SketchSnapshot)
		want  string // "" = loads
	}{
		{"as saved", func(*SketchSnapshot) {}, ""},
		{"empty sketch", func(s *SketchSnapshot) {
			*s = NewSketch(0.01).Snapshot()
		}, ""},
		{"count above buckets", func(s *SketchSnapshot) { s.Count = 50 }, "count 50"},
		{"count below buckets", func(s *SketchSnapshot) { s.Count = 4 }, "count 4"},
		{"zero count counted twice", func(s *SketchSnapshot) { s.Zero, s.Count = 1, 5 }, "count 5"},
		{"bucket counts overflow", func(s *SketchSnapshot) {
			s.PosCounts[0], s.PosCounts[1] = math.MaxUint64, 2
			s.PosKeys, s.PosCounts, s.Count = s.PosKeys[:2], s.PosCounts[:2], 1
		}, "count 1"},
		{"zero-count bucket", func(s *SketchSnapshot) {
			s.NegKeys, s.NegCounts = []int32{3}, []uint64{0}
		}, "count 0"},
		{"min above max", func(s *SketchSnapshot) { s.Min, s.Max = s.Max, s.Min }, "min 5 exceeds max 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap := five.Snapshot()
			c.patch(&snap)
			got := NewSketch(0.01)
			got.Observe(7)
			err := got.Load(bytes.NewReader(encodeSnapshot(snap)))
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("Load: %v", err)
			case c.want == "":
				if got.Count() != snap.Count {
					t.Errorf("loaded count %d, want %d", got.Count(), snap.Count)
				}
			case err == nil:
				t.Fatalf("Load accepted the blob; Percentile(50) = %v", got.Percentile(50))
			case !strings.Contains(err.Error(), c.want):
				t.Errorf("Load error %q does not name %q", err, c.want)
			case got.Count() != 1 || got.Max() != 7:
				t.Errorf("a refused load changed the receiver: count %d, max %v", got.Count(), got.Max())
			}
		})
	}
}

func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch(0.01)
	if s.Percentile(50) != 0 {
		t.Error("empty sketch percentile should be 0")
	}
	s.Observe(math.NaN())
	if s.Count() != 0 {
		t.Error("NaN should be ignored")
	}
	s.Observe(math.Inf(1))
	if s.Count() != 1 || math.IsInf(s.Percentile(100), 0) || math.IsNaN(s.Percentile(100)) {
		t.Errorf("+Inf should clamp finite, got %v", s.Percentile(100))
	}
	s2 := NewSketch(0.01)
	s2.ObserveN(3.5, 1000)
	if s2.Count() != 1000 {
		t.Errorf("ObserveN count = %d", s2.Count())
	}
	if rel := math.Abs(s2.Percentile(50)-3.5) / 3.5; rel > 0.01 {
		t.Errorf("ObserveN median %v off 3.5", s2.Percentile(50))
	}
	if s2.Buckets() != 1 {
		t.Errorf("single repeated value should occupy 1 bucket, got %d", s2.Buckets())
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSketch(0) should panic")
		}
	}()
	NewSketch(0)
}

func TestSketchBoundedMemory(t *testing.T) {
	s := NewSketch(0.01)
	for _, v := range sketchValues(50000) {
		s.Observe(v)
	}
	// Six decades at α = 1% is ~log(1e6)/log(γ) ≈ 691 buckets.
	if b := s.Buckets(); b > 800 {
		t.Errorf("bucket count %d exceeds O(log range) expectation", b)
	}
}
