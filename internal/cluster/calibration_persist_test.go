package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"reflect"
	"testing"

	"robustscale/internal/wire"
)

// loadCalibration is Load into a new tracker.
func loadCalibration(r io.Reader) (*Calibration, error) {
	c := new(Calibration)
	return c, c.Load(r)
}

func TestCalibrationSaveLoadRoundTrip(t *testing.T) {
	c, err := NewCalibration([]float64{0.5, 0.9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Fill past the window so eviction state is exercised, plus one
	// skipped non-finite observation.
	for i := 0; i < 12; i++ {
		v := 10 + float64(i)
		if err := c.Observe(v, []float64{v - 1, v + 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Observe(math.NaN(), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := loadCalibration(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, got := c.Snapshot(), c2.Snapshot()
	if got.Steps != want.Steps || got.Skipped != want.Skipped {
		t.Fatalf("steps/skipped: got (%d, %d), want (%d, %d)", got.Steps, got.Skipped, want.Steps, want.Skipped)
	}
	if got.WQL != want.WQL {
		t.Fatalf("wQL: got %v, want %v", got.WQL, want.WQL)
	}
	for i := range want.Coverage {
		if got.Coverage[i] != want.Coverage[i] {
			t.Fatalf("coverage[%d]: got %v, want %v", i, got.Coverage[i], want.Coverage[i])
		}
	}
	// The restored tracker keeps rolling correctly: both see the same
	// statistics after further identical observations.
	for i := 0; i < 5; i++ {
		v := 30 + float64(i)
		if err := c.Observe(v, []float64{v, v + 1}); err != nil {
			t.Fatal(err)
		}
		if err := c2.Observe(v, []float64{v, v + 1}); err != nil {
			t.Fatal(err)
		}
	}
	want, got = c.Snapshot(), c2.Snapshot()
	if got.WQL != want.WQL || got.Steps != want.Steps {
		t.Fatalf("post-restore divergence: got (%v, %d), want (%v, %d)", got.WQL, got.Steps, want.WQL, want.Steps)
	}
}

func TestLoadCalibrationRejectsGarbage(t *testing.T) {
	if _, err := loadCalibration(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage should fail")
	}
}

// TestLoadCalibrationConvertsRingLayout: a blob of the older step-ring
// layout — levels 0.5 and 0.9, a three-step window holding its last three
// of five observations, one skipped — loads into the tracker that
// observing those steps builds: the same steps, skipped count and
// coverage, the rolling wQL within 1e-12, and it saves in the bucket
// layout, which loads back to itself.
func TestLoadCalibrationConvertsRingLayout(t *testing.T) {
	ring, err := hex.DecodeString("02000000000000e03fcdccccccccccec3f06010300000000000028400000000000002a400000000000002c400600000000000026400000000000002a400000000000002c40000000000000264000000000000026400000000000002e40")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCalibration(bytes.NewReader(ring))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewCalibration([]float64{0.5, 0.9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := want.Observe(10+float64(i), []float64{11 + float64(i*3%6), 11 + float64(i*4%6)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := want.Observe(1, []float64{math.Inf(1), 11}); err != nil {
		t.Fatal(err)
	}
	got, exp := loaded.Snapshot(), want.Snapshot()
	if math.Abs(got.WQL-exp.WQL) > 1e-12*exp.WQL {
		t.Errorf("converted wQL %v, observed %v", got.WQL, exp.WQL)
	}
	got.WQL = exp.WQL
	if !reflect.DeepEqual(got, exp) || got.Steps != 3 {
		t.Errorf("converted window %+v, observed %+v", got, exp)
	}
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	again, err := loadCalibration(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := again.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, resaved.Bytes()) || bytes.Equal(saved, ring) {
		t.Errorf("the converted tracker saves %x, which reloads to %x", saved, resaved.Bytes())
	}
}

// TestLoadCalibrationRefusesBadBuckets: a bucket-layout blob whose
// records admit could not have left is refused.
func TestLoadCalibrationRefusesBadBuckets(t *testing.T) {
	c, err := NewCalibration([]float64{0.5}, 24) // 12 buckets of 2 steps
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Observe(10, []float64{9 + float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// The record run starts after the level run (1+8 bytes), the negated
	// window, the skipped count and its own count (a byte each): the
	// window's record [5 steps, 50, covered, pinball], then three buckets.
	const records = 1 + 8 + 1 + 1 + 1
	if _, err := loadCalibration(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]struct {
		field int
		v     float64
	}{
		"fractional count":       {4, 1.5},
		"window count":           {0, 4},
		"covered past its steps": {6, 3},
		"partial older bucket":   {4, 1},
		"non-finite sum":         {1, math.Inf(1)},
	} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[records+8*damage.field:], math.Float64bits(damage.v))
		if _, err := loadCalibration(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

// TestLoadCalibrationRefusesHugeWindows: a window past the cell limit is
// refused before anything is sized by it, in either layout, and a prime
// one does not make the reader walk its divisors.
func TestLoadCalibrationRefusesHugeWindows(t *testing.T) {
	for _, window := range []int64{1<<61 - 1, -(1<<61 - 1), maxSnapshotCells + 1, 12 << 40} {
		b := wire.AppendFloats(nil, []float64{0.5})
		b = wire.AppendVarints(b, window, 0)
		b = wire.AppendFloats(b, nil)
		if window > 0 {
			b = wire.AppendFloats(b, nil)
		}
		if _, err := loadCalibration(bytes.NewReader(b)); err == nil {
			t.Errorf("a %d window loaded", window)
		}
	}
}
