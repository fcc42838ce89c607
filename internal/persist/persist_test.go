package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden checkpoint fixture")

// testState builds a fully populated state with fixed contents so tests
// (and the golden file) are deterministic.
func testState() *State {
	return &State{
		SavedAt: time.Date(2024, 3, 1, 12, 30, 0, 0, time.UTC),
		Fingerprint: Fingerprint{
			Strategy: "robust",
			Tenant:   "default",
			Dataset:  "alibaba",
			Seed:     42,
			Theta:    6.5,
			Horizon:  12,
			Tau:      0.9,
			Tau2:     0.6,
		},
		Origin:         288,
		PrevAlloc:      17,
		Steps:          288,
		Violations:     3,
		Holds:          1,
		Rho:            0.75,
		ForecasterKind: "tft",
		Forecaster:     []byte("forecaster-weights"),
		Calibration:    []byte("calibration-window"),
		Guard:          []byte("guard-mode"),
		Breaker:        []byte("breaker-state"),
		Journal:        []byte("journal-ring"),
		Decisions:      []byte("decision-ring"),
		SLO:            []byte("slo-budget-window"),
		Extra:          []byte("loop-accounting"),
	}
}

func encodeState(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// newManager opens a Manager for testState's tenant over dir.
func newManager(t testing.TB, dir string, retain int) *Manager {
	t.Helper()
	m, err := NewManager(dir, "default", retain)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

// TestEncodeDecodeRoundTrip: Encode writes exactly the one-record segment
// a Manager commits, and that segment reads back to the state.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testState()
	raw := encodeState(t, want)
	path, err := newManager(t, t.TempDir(), 3).Write(want)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if written, err := os.ReadFile(path); err != nil || !bytes.Equal(written, raw) {
		t.Fatalf("Manager.Write committed other bytes than Encode writes (%v)", err)
	}
	recs, err := parseSegment(raw, DefaultMaxBytes)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Encode's image parsed to %d records (%v), want one", len(recs), err)
	}
	got, err := decodeRecord(recs[want.Fingerprint.Tenant])
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// recoverDamaged commits testState through a Manager, lets damage edit
// the committed image, and recovers: the only checkpoint is damaged, so
// the result must be ErrNoCheckpoint wrapping the reason.
func recoverDamaged(t *testing.T, damage func([]byte) []byte) error {
	t.Helper()
	m := newManager(t, t.TempDir(), 3)
	path, err := m.Write(testState())
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	rewrite(t, path, damage)
	st, info, err := m.Recover()
	if st != nil || !errors.Is(err, ErrNoCheckpoint) || len(info.Rejected) != 1 {
		t.Fatalf("damaged checkpoint recovered to (%v, %+v, %v), want one rejection and ErrNoCheckpoint", st, info, err)
	}
	return err
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if err := recoverDamaged(t, func(b []byte) []byte { b[0] = 'X'; return b }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	err := recoverDamaged(t, func(b []byte) []byte { b[4] = 99; return b }) // little-endian version field
	if !errors.Is(err, ErrVersionSkew) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("version skew: got %v, want ErrVersionSkew alone", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	// Cut points count from the end when negative.
	for _, cut := range []int{1, segHeaderLen - 1, segHeaderLen, segHeaderLen + recHeaderLen + 5, -1} {
		err := recoverDamaged(t, func(b []byte) []byte { return b[:(cut+len(b))%len(b)] })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestDecodeRejectsBitFlip(t *testing.T) {
	// One bit in the middle of the record: the CRC must catch it.
	if err := recoverDamaged(t, func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeBoundsOversizedClaim(t *testing.T) {
	// The record's payload length claims 4GiB: refused from the frame
	// header alone (TestParseSegmentBoundsLengthClaims pins the allocation).
	err := recoverDamaged(t, func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[segHeaderLen+2:], 0xffffffff)
		return b
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized claim: got %v, want ErrCorrupt", err)
	}
}

func TestManagerWriteRecover(t *testing.T) {
	m := newManager(t, t.TempDir(), 3)
	want := testState()
	if _, err := m.Write(want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, info, err := m.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.Path == "" || len(info.Rejected) != 0 {
		t.Fatalf("unexpected recover info: %+v", info)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestManagerEmptyDirColdStart(t *testing.T) {
	st, _, err := newManager(t, t.TempDir(), 3).Recover()
	if err != nil || st != nil {
		t.Fatalf("empty dir: got (%v, %v), want (nil, nil)", st, err)
	}
}

func TestManagerRetention(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir, 2)
	for i := 0; i < 5; i++ {
		st := testState()
		st.Origin = i
		if _, err := m.Write(st); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*")); len(segs) != 2 {
		t.Fatalf("retention: %d files kept, want 2: %v", len(segs), segs)
	}
	// The newest checkpoint wins recovery.
	got, _, err := m.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got.Origin != 4 {
		t.Fatalf("recovered Origin = %d, want 4 (newest)", got.Origin)
	}
}

func TestManagerSequenceSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	p1, err := newManager(t, dir, 5).Write(testState())
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	// A fresh manager over the same dir continues the sequence instead
	// of overwriting the existing checkpoint.
	m2 := newManager(t, dir, 5)
	p2, err := m2.Write(testState())
	if err != nil {
		t.Fatalf("Write after reopen: %v", err)
	}
	if p1 == p2 {
		t.Fatalf("reopened manager overwrote %s", p1)
	}
	if !slices.Equal(m2.files, []string{p1, p2}) {
		t.Fatalf("files after reopen: %v, want [%s %s]", m2.files, p1, p2)
	}
}

func TestRecoverFallsBackPastCorruption(t *testing.T) {
	m := newManager(t, t.TempDir(), 3)
	older := testState()
	older.Origin = 100
	if _, err := m.Write(older); err != nil {
		t.Fatalf("Write older: %v", err)
	}
	newer := testState()
	newer.Origin = 200
	newest, err := m.Write(newer)
	if err != nil {
		t.Fatalf("Write newer: %v", err)
	}
	// Truncate the newest checkpoint mid-record.
	if err := os.Truncate(newest, segHeaderLen+recHeaderLen+7); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	got, info, err := m.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got.Origin != 100 {
		t.Fatalf("fallback recovered Origin = %d, want 100 (older checkpoint)", got.Origin)
	}
	if len(info.Rejected) != 1 || info.Rejected[0] != newest {
		t.Fatalf("rejected = %v, want [%s]", info.Rejected, newest)
	}
}

func TestRecoverAllCorruptReportsNoCheckpoint(t *testing.T) {
	// recoverDamaged asserts the ErrNoCheckpoint and the one rejection.
	recoverDamaged(t, func([]byte) []byte { return []byte("garbage") })
}

// TestRecoverSkipsVersionSkew: a directory holding segments of another
// format version and one current segment recovers from the current one;
// one holding only skewed segments reports ErrNoCheckpoint, so the caller
// cold-starts.
func TestRecoverSkipsVersionSkew(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir, 3)
	for i := 0; i < 2; i++ {
		path, err := m.Write(testState())
		if err != nil {
			t.Fatal(err)
		}
		// An older, then a newer format version.
		rewrite(t, path, func(b []byte) []byte { b[4] = byte(SegmentVersion - 1 + 2*i); return b })
	}
	if st, info, err := m.Recover(); st != nil || !errors.Is(err, ErrVersionSkew) || len(info.Rejected) != 2 {
		t.Fatalf("skewed-only recovery returned (%v, %+v, %v), want both rejected and ErrVersionSkew", st, info, err)
	}
	current, err := m.Write(testState())
	if err != nil {
		t.Fatal(err)
	}
	if st, info, err := m.Recover(); err != nil || st == nil || info.Path != current {
		t.Fatalf("recovery with a current segment present: (%v, %+v, %v), want %s", st, info, err, current)
	}
}

func TestCheckpointCountersAdvance(t *testing.T) {
	m := newManager(t, t.TempDir(), 3)
	w0, r0, c0 := CheckpointWrites(), ckptRecoveries.Value(), ckptCorrupt.Value()
	p, err := m.Write(testState())
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, _, err := m.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := os.Truncate(p, 3); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, _, err := m.Recover(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("corrupt recover: %v", err)
	}
	if got := CheckpointWrites() - w0; got != 1 {
		t.Errorf("writes counter advanced by %v, want 1", got)
	}
	if got := ckptRecoveries.Value() - r0; got != 1 {
		t.Errorf("recoveries counter advanced by %v, want 1", got)
	}
	if got := ckptCorrupt.Value() - c0; got != 1 {
		t.Errorf("corrupt counter advanced by %v, want 1", got)
	}
}

// TestGoldenFormat pins the on-disk format with a golden one-record
// segment: the checked-in fixture must read back to the expected state,
// and re-encoding that state must reproduce it byte for byte. Any State,
// record or header change that breaks this requires a SegmentVersion bump
// (and a new fixture).
func TestGoldenFormat(t *testing.T) {
	golden := filepath.Join("testdata", "segment_v4.seg")
	want := testState()
	raw := encodeState(t, want)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixed, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update-golden): %v", err)
	}
	recs, err := parseSegment(fixed, DefaultMaxBytes)
	if err != nil {
		t.Fatalf("parsing golden fixture: %v", err)
	}
	got, err := decodeRecord(recs[want.Fingerprint.Tenant])
	if err != nil {
		t.Fatalf("decoding golden fixture: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden fixture decodes to:\n %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(raw, fixed) {
		t.Fatalf("re-encoding testState no longer matches the golden fixture: the on-disk format drifted — bump persist.SegmentVersion and regenerate with -update-golden")
	}
}

// The checkpoint path must stay cheap relative to a plan round; this
// bench is the evidence that periodic checkpointing is off the hot path.
func BenchmarkManagerWrite(b *testing.B) {
	m, err := NewManager(b.TempDir(), "default", 3)
	if err != nil {
		b.Fatalf("NewManager: %v", err)
	}
	st := testState()
	// A realistically sized model blob (~1MB of weights).
	st.Forecaster = make([]byte, 1<<20)
	for i := range st.Forecaster {
		st.Forecaster[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Write(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	st := testState()
	st.Forecaster = make([]byte, 1<<20)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, st); err != nil {
			b.Fatal(err)
		}
	}
}
