package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// segState is testState for one tenant of a test fleet at one round.
func segState(tenant string, origin int) *State {
	st := testState()
	st.Fingerprint.Tenant = tenant
	st.Origin = origin
	return st
}

var segTenants = []string{"t00000", "t00001", "t00002", "t00003"}

// commitRound opens the root, writes one record per tenant at the given
// origin and commits them; it returns the segment path.
func commitRound(t *testing.T, dir string, retain, origin int) string {
	t.Helper()
	s, err := OpenSegments(dir, retain, len(segTenants))
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	for i, id := range segTenants {
		sl, err := s.Slot(i, id)
		if err != nil {
			t.Fatalf("Slot(%d, %s): %v", i, id, err)
		}
		if _, err := sl.Write(segState(id, origin)); err != nil {
			t.Fatalf("Write %s: %v", id, err)
		}
	}
	path, err := s.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return path
}

// recoverAll reopens the root and runs every tenant's recovery ladder.
func recoverAll(t *testing.T, dir string) (map[string]*State, map[string]RecoverInfo, map[string]error) {
	t.Helper()
	s, err := OpenSegments(dir, 0, len(segTenants))
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	states, infos, errs := map[string]*State{}, map[string]RecoverInfo{}, map[string]error{}
	for i, id := range segTenants {
		sl, err := s.Slot(i, id)
		if err != nil {
			t.Fatal(err)
		}
		states[id], infos[id], errs[id] = sl.Recover()
	}
	return states, infos, errs
}

// recordSpan returns the byte range of a tenant's whole record (frame
// header included) inside a clean segment image.
func recordSpan(t *testing.T, data []byte, tenant string) (int, int) {
	t.Helper()
	for off := segHeaderLen; off+recHeaderLen <= len(data); {
		idLen := int(binary.LittleEndian.Uint16(data[off:]))
		size := recHeaderLen + idLen + int(binary.LittleEndian.Uint32(data[off+2:]))
		if string(data[off+recHeaderLen:off+recHeaderLen+idLen]) == tenant {
			return off, off + size
		}
		off += size
	}
	t.Fatalf("no record for %s", tenant)
	return 0, 0
}

func rewrite(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentCommitRecover(t *testing.T) {
	dir := t.TempDir()
	w0 := CheckpointWrites()
	path := commitRound(t, dir, 3, 288)
	if got := CheckpointWrites() - w0; got != 1 {
		t.Errorf("a %d-tenant commit advanced the write counter by %v, want 1", len(segTenants), got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("state root holds %v (err %v), want only %s", entries, err, filepath.Base(path))
	}
	states, infos, errs := recoverAll(t, dir)
	for _, id := range segTenants {
		if errs[id] != nil {
			t.Fatalf("%s: %v", id, errs[id])
		}
		if want := segState(id, 288); !reflect.DeepEqual(states[id], want) {
			t.Errorf("%s recovered\n got %+v\nwant %+v", id, states[id], want)
		}
		if infos[id].Path != path || len(infos[id].Rejected) != 0 {
			t.Errorf("%s recover info %+v, want a clean read of %s", id, infos[id], path)
		}
	}
}

func TestSegmentEmptyRootColdStarts(t *testing.T) {
	states, _, errs := recoverAll(t, t.TempDir())
	for _, id := range segTenants {
		if states[id] != nil || errs[id] != nil {
			t.Errorf("%s on an empty root: (%v, %v), want (nil, nil)", id, states[id], errs[id])
		}
	}
}

// TestStateCodecCoversEveryField fills every field of State by reflection
// and round-trips it, so a field added to State but not to appendState
// and decodeRecord fails here instead of silently not being checkpointed.
func TestStateCodecCoversEveryField(t *testing.T) {
	want := new(State)
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			if v.Type() == reflect.TypeOf(time.Time{}) {
				v.Set(reflect.ValueOf(time.Date(2024, 3, 1, 0, 0, n, 0, time.UTC)))
				return
			}
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(-1000 * n))
		case reflect.Float64:
			v.SetFloat(float64(n) / 7)
		case reflect.Slice:
			v.SetBytes([]byte(fmt.Sprintf("section-%d", n)))
		default:
			t.Fatalf("State grew a %s field the segment codec does not know", v.Kind())
		}
	}
	fill(reflect.ValueOf(want).Elem())
	rec := appendState(nil, want)
	if len(rec) > stateSizeBound(want) {
		t.Errorf("record is %d bytes, stateSizeBound promised at most %d", len(rec), stateSizeBound(want))
	}
	got, err := decodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost a field:\n got %+v\nwant %+v", got, want)
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, err := decodeRecord(rec[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record cut at %d of %d decoded with %v, want ErrCorrupt", cut, len(rec), err)
		}
	}
}

func TestSegmentRetention(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for round := 1; round <= 5; round++ {
		paths = append(paths, commitRound(t, dir, 2, 12*round))
	}
	s, err := OpenSegments(dir, 2, len(segTenants))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.files, paths[3:]) {
		t.Fatalf("retained %v, want the newest two %v", s.files, paths[3:])
	}
	states, _, _ := recoverAll(t, dir)
	if states["t00001"].Origin != 60 {
		t.Errorf("recovered origin %d, want 60 (newest)", states["t00001"].Origin)
	}
}

// TestCommitSyncsBeforeRename pins the durability order of the one commit
// routine, for both of its users: the file is fsynced once before the
// rename publishes it and the directory once after.
func TestCommitSyncsBeforeRename(t *testing.T) {
	var log []string
	origSync, origRename, origDir := fsyncFile, renameFile, fsyncDir
	defer func() { fsyncFile, renameFile, fsyncDir = origSync, origRename, origDir }()
	fsyncFile = func(f *os.File) error { log = append(log, "fsync "+filepath.Ext(f.Name())); return origSync(f) }
	renameFile = func(from, to string) error {
		log = append(log, "rename "+filepath.Ext(to))
		return origRename(from, to)
	}
	fsyncDir = func(dir string) { log = append(log, "fsync dir"); origDir(dir) }

	commitRound(t, t.TempDir(), 3, 12)
	if want := []string{"fsync .tmp", "rename .seg", "fsync dir"}; !slices.Equal(log, want) {
		t.Errorf("segment commit did %v, want %v", log, want)
	}
	log = nil
	if _, err := newManager(t, t.TempDir(), 3).Write(testState()); err != nil {
		t.Fatal(err)
	}
	if want := []string{"fsync .tmp", "rename .seg", "fsync dir"}; !slices.Equal(log, want) {
		t.Errorf("manager write did %v, want %v", log, want)
	}
}

// TestCommitFailureLeavesNoTemp: a commit that fails before the rename
// removes its temp file, publishes nothing and does not count as a write.
func TestCommitFailureLeavesNoTemp(t *testing.T) {
	orig := fsyncFile
	defer func() { fsyncFile = orig }()
	fsyncFile = func(*os.File) error { return errors.New("disk on fire") }
	dir := t.TempDir()
	m := newManager(t, dir, 3)
	w0 := CheckpointWrites()
	if _, err := m.Write(testState()); err == nil {
		t.Fatal("write with a failing fsync succeeded")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("failed write left %v behind", entries)
	}
	if CheckpointWrites() != w0 {
		t.Error("failed write counted as a checkpoint")
	}
}

// TestSegmentCorruptRecordFallsBack: a bit flip inside one tenant's newest
// record sends that tenant, and only that tenant, to the previous segment.
func TestSegmentCorruptRecordFallsBack(t *testing.T) {
	dir := t.TempDir()
	older := commitRound(t, dir, 3, 12)
	newest := commitRound(t, dir, 3, 24)
	const victim = "t00002"
	rewrite(t, newest, func(data []byte) []byte {
		lo, hi := recordSpan(t, data, victim)
		data[(lo+hi)/2] ^= 0x20
		return data
	})
	c0 := ckptCorrupt.Value()
	states, infos, errs := recoverAll(t, dir)
	for _, id := range segTenants {
		if errs[id] != nil {
			t.Fatalf("%s: %v", id, errs[id])
		}
		wantOrigin, wantPath := 24, newest
		if id == victim {
			wantOrigin, wantPath = 12, older
		}
		if states[id].Origin != wantOrigin || infos[id].Path != wantPath {
			t.Errorf("%s recovered origin %d from %s, want %d from %s",
				id, states[id].Origin, infos[id].Path, wantOrigin, wantPath)
		}
		if id != victim && len(infos[id].Rejected) != 0 {
			t.Errorf("bystander %s rejected %v", id, infos[id].Rejected)
		}
	}
	if got := infos[victim].Rejected; !slices.Equal(got, []string{newest}) {
		t.Errorf("victim rejected %v, want [%s]", got, newest)
	}
	if got := ckptCorrupt.Value() - c0; got != 1 {
		t.Errorf("corrupt counter advanced by %v, want 1", got)
	}

	// The same flip in every retained segment leaves the victim nothing.
	rewrite(t, older, func(data []byte) []byte {
		lo, hi := recordSpan(t, data, victim)
		data[(lo+hi)/2] ^= 0x20
		return data
	})
	states, _, errs = recoverAll(t, dir)
	if !errors.Is(errs[victim], ErrNoCheckpoint) || states[victim] != nil {
		t.Errorf("victim with no intact record: (%v, %v), want ErrNoCheckpoint", states[victim], errs[victim])
	}
	if errs["t00003"] != nil || states["t00003"].Origin != 24 {
		t.Errorf("bystander behind the victim lost its newest record: %v", errs["t00003"])
	}
}

// TestSegmentTornTail: a newest segment cut mid-record keeps every record
// in front of the tear; the tenants behind it resume from the previous
// segment.
func TestSegmentTornTail(t *testing.T) {
	dir := t.TempDir()
	older := commitRound(t, dir, 3, 12)
	newest := commitRound(t, dir, 3, 24)
	rewrite(t, newest, func(data []byte) []byte {
		lo, hi := recordSpan(t, data, "t00002")
		return data[:(lo+hi)/2]
	})
	states, infos, errs := recoverAll(t, dir)
	for i, id := range segTenants {
		if errs[id] != nil {
			t.Fatalf("%s: %v", id, errs[id])
		}
		wantOrigin, wantPath, wantRejected := 24, newest, 0
		if i >= 2 {
			wantOrigin, wantPath, wantRejected = 12, older, 1
		}
		if states[id].Origin != wantOrigin || infos[id].Path != wantPath || len(infos[id].Rejected) != wantRejected {
			t.Errorf("%s: origin %d from %s, %d rejected; want %d from %s, %d rejected",
				id, states[id].Origin, infos[id].Path, len(infos[id].Rejected), wantOrigin, wantPath, wantRejected)
		}
	}
}

// TestSegmentVersionSkewFallsBack: a segment from another format version
// is refused whole, as version skew and not as corruption.
func TestSegmentVersionSkewFallsBack(t *testing.T) {
	dir := t.TempDir()
	older := commitRound(t, dir, 3, 12)
	newest := commitRound(t, dir, 3, 24)
	rewrite(t, newest, func(data []byte) []byte { data[4] = 9; return data })
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := parseSegment(data, 1<<20); !errors.Is(err, ErrVersionSkew) || errors.Is(err, ErrCorrupt) || recs != nil {
		t.Fatalf("skewed segment parsed to (%d records, %v), want ErrVersionSkew alone", len(recs), err)
	}
	states, infos, errs := recoverAll(t, dir)
	for _, id := range segTenants {
		if errs[id] != nil || states[id].Origin != 12 || infos[id].Path != older {
			t.Errorf("%s: origin %v from %s (err %v), want 12 from %s", id, states[id], infos[id].Path, errs[id], older)
		}
	}
}

// TestParseSegmentBoundsLengthClaims: a record that claims more than the
// limit, or more than the file holds, is refused from its header; nothing
// is allocated for the claim and the records in front of it survive.
func TestParseSegmentBoundsLengthClaims(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(commitRound(t, dir, 3, 12))
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := recordSpan(t, data, "t00001")
	for name, claim := range map[string]uint32{"over the limit": 1 << 31, "past the end": 1 << 19} {
		lying := bytes.Clone(data)
		binary.LittleEndian.PutUint32(lying[lo+2:], claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := parseSegment(lying, 1<<20)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
		if len(recs) != 1 || recs["t00000"] == nil {
			t.Errorf("%s: kept %d records, want only the one in front of the lie", name, len(recs))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
			t.Errorf("%s: parsing allocated %d bytes for a %d-byte claim", name, grew, claim)
		}
	}
}
