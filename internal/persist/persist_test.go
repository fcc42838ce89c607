package persist

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testState()
	raw := encodeState(t, want)
	got, err := Decode(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	raw := encodeState(t, testState())
	raw[0] = 'X'
	if _, err := Decode(bytes.NewReader(raw), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	raw := encodeState(t, testState())
	raw[4] = 99 // little-endian version field
	if _, err := Decode(bytes.NewReader(raw), 0); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("version skew: got %v, want ErrVersionSkew", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	raw := encodeState(t, testState())
	for _, cut := range []int{1, headerLen - 1, headerLen, headerLen + 5, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:cut]), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestDecodeRejectsBitFlip(t *testing.T) {
	raw := encodeState(t, testState())
	// Flip one bit in the middle of the payload: CRC must catch it.
	raw[headerLen+len(raw[headerLen:])/2] ^= 0x10
	if _, err := Decode(bytes.NewReader(raw), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeBoundsOversizedClaim(t *testing.T) {
	raw := encodeState(t, testState())
	// Rewrite the length field to claim an absurd payload; decode must
	// reject it from the header alone without allocating.
	for i, b := range []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} {
		raw[8+i] = b
	}
	if _, err := Decode(bytes.NewReader(raw), 1<<20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized claim: got %v, want ErrCorrupt", err)
	}
}

func TestManagerWriteRecover(t *testing.T) {
	m, err := NewManager(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
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
	m, err := NewManager(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	st, _, err := m.Recover()
	if err != nil || st != nil {
		t.Fatalf("empty dir: got (%v, %v), want (nil, nil)", st, err)
	}
}

func TestManagerRetention(t *testing.T) {
	m, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	for i := 0; i < 5; i++ {
		st := testState()
		st.Origin = i
		if _, err := m.Write(st); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	snaps := m.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("retention: %d snapshots kept, want 2: %v", len(snaps), snaps)
	}
	// The newest snapshot wins recovery.
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
	m1, err := NewManager(dir, 5)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	p1, err := m1.Write(testState())
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	// A fresh manager over the same dir continues the sequence instead
	// of overwriting the existing snapshot.
	m2, err := NewManager(dir, 5)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	p2, err := m2.Write(testState())
	if err != nil {
		t.Fatalf("Write after reopen: %v", err)
	}
	if p1 == p2 {
		t.Fatalf("reopened manager overwrote %s", p1)
	}
	if got := m2.Snapshots(); len(got) != 2 {
		t.Fatalf("snapshots after reopen: %v, want 2 files", got)
	}
}

func TestRecoverFallsBackPastCorruption(t *testing.T) {
	m, err := NewManager(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
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
	// Truncate the newest snapshot mid-payload.
	if err := os.Truncate(newest, headerLen+7); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	got, info, err := m.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got.Origin != 100 {
		t.Fatalf("fallback recovered Origin = %d, want 100 (older snapshot)", got.Origin)
	}
	if len(info.Rejected) != 1 || info.Rejected[0] != newest {
		t.Fatalf("rejected = %v, want [%s]", info.Rejected, newest)
	}
}

func TestRecoverAllCorruptReportsNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 3)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	p, err := m.Write(testState())
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatalf("corrupting: %v", err)
	}
	st, info, err := m.Recover()
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt: got (%v, %v), want ErrNoCheckpoint", st, err)
	}
	if len(info.Rejected) != 1 {
		t.Fatalf("rejected = %v, want one entry", info.Rejected)
	}
}

func TestCheckpointCountersAdvance(t *testing.T) {
	m, err := NewManager(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	w0, r0, c0 := CheckpointWrites(), CheckpointRecoveries(), CheckpointCorrupt()
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
	if got := CheckpointRecoveries() - r0; got != 1 {
		t.Errorf("recoveries counter advanced by %v, want 1", got)
	}
	if got := CheckpointCorrupt() - c0; got != 1 {
		t.Errorf("corrupt counter advanced by %v, want 1", got)
	}
}

// TestGoldenFormat pins the on-disk format: the checked-in fixture must
// decode to the expected state, and re-encoding that state must
// reproduce the fixture byte for byte. Any State or frame change that
// breaks this requires a Version bump (and a new fixture).
func TestGoldenFormat(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint_v4.ckpt")
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
	got, err := Decode(bytes.NewReader(fixed), 0)
	if err != nil {
		t.Fatalf("decoding golden fixture: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden fixture decodes to:\n %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(raw, fixed) {
		t.Fatalf("re-encoding testState no longer matches the golden fixture: the on-disk format drifted — bump persist.Version and regenerate with -update-golden")
	}
}

// The checkpoint path must stay cheap relative to a plan round; this
// bench is the evidence that periodic checkpointing is off the hot path.
func BenchmarkManagerWrite(b *testing.B) {
	m, err := NewManager(b.TempDir(), 3)
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
