package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"robustscale/internal/wire"
)

const testRevision = 7

// testSeries is three slots with keys and lengths of their own.
func testSeries() []SeriesRecord {
	return []SeriesRecord{
		{Key: []byte("t00000/alibaba"), Values: []float64{1, 2.5, -3, 4}},
		{Key: []byte("t00001/google|longer-key"), Values: []float64{0, 1e-300, 7}},
		{Key: []byte("t00002"), Values: []float64{42, 43, 44, 45, 46}},
	}
}

// writeSeries commits recs under dir and returns the file's path.
func writeSeries(t testing.TB, dir string, recs []SeriesRecord) string {
	t.Helper()
	s, err := OpenSeries(dir, testRevision)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	path, err := s.Write(recs)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// readAll opens dir's series file and reads every slot of want under its
// own key and length, returning the per-slot errors.
func readAll(t *testing.T, dir string, want []SeriesRecord) []error {
	t.Helper()
	s, err := OpenSeries(dir, testRevision)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	errs := make([]error, len(want))
	for i, rec := range want {
		var got []float64
		if got, errs[i] = s.Read(i, rec.Key, len(rec.Values)); errs[i] == nil && !slices.Equal(got, rec.Values) {
			t.Errorf("slot %d read back %v, want %v", i, got, rec.Values)
		}
	}
	return errs
}

func TestSeriesWriteRead(t *testing.T) {
	dir := t.TempDir()
	recs := testSeries()
	if errs := readAll(t, dir, recs); errs[0] == nil || errs[2] == nil {
		t.Fatalf("an empty root served records: %v", errs)
	}
	writes := CheckpointWrites()
	first := writeSeries(t, dir, recs)
	for i, err := range readAll(t, dir, recs) {
		if err != nil {
			t.Errorf("slot %d: %v", i, err)
		}
	}

	// A second write continues the sequence and replaces the first: one
	// series file, and none of it counted as a checkpoint.
	recs[1].Values[0] = 99
	second := writeSeries(t, dir, recs)
	if first == second || filepath.Base(second) != "series-00000001.ser" {
		t.Errorf("second write went to %s after %s", second, first)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); !slices.Equal(left, []string{second}) {
		t.Errorf("state root holds %v, want only %s", left, second)
	}
	for i, err := range readAll(t, dir, recs) {
		if err != nil {
			t.Errorf("slot %d after the rewrite: %v", i, err)
		}
	}
	if got := CheckpointWrites() - writes; got != 0 {
		t.Errorf("two series writes counted as %v checkpoints", got)
	}
}

// TestSeriesMissLadder walks every way a record can fail to come back;
// each costs exactly the records it covers.
func TestSeriesMissLadder(t *testing.T) {
	recs := testSeries()
	second := func(raw []byte) int { return bytes.Index(raw, recs[1].Key) - serRecHeaderLen }
	cases := []struct {
		name string
		edit func(raw []byte) []byte
		miss []bool // per slot
		skew bool   // the misses are ErrVersionSkew, not ErrCorrupt
	}{
		{name: "clean", edit: func(raw []byte) []byte { return raw }, miss: []bool{false, false, false}},
		{name: "empty file", edit: func([]byte) []byte { return nil }, miss: []bool{true, true, true}},
		{name: "torn inside the index", edit: func(raw []byte) []byte { return raw[:serHeaderLen+10] }, miss: []bool{true, true, true}},
		{name: "torn inside the second record", edit: func(raw []byte) []byte { return raw[:second(raw)+20] }, miss: []bool{false, true, true}},
		{name: "flipped offset", edit: func(raw []byte) []byte { raw[serHeaderLen+8] ^= 1; return raw }, miss: []bool{true, true, true}},
		{name: "flipped record count", edit: func(raw []byte) []byte { raw[12] ^= 1; return raw }, miss: []bool{true, true, true}},
		{name: "flipped value", edit: func(raw []byte) []byte { raw[second(raw)+serRecHeaderLen+len(recs[1].Key)+9] ^= 0x10; return raw }, miss: []bool{false, true, false}},
		{name: "flipped key", edit: func(raw []byte) []byte { raw[second(raw)+serRecHeaderLen] ^= 0x01; return raw }, miss: []bool{false, true, false}},
		{name: "future format", edit: func(raw []byte) []byte { raw[4] = 9; return raw }, miss: []bool{true, true, true}, skew: true},
		{name: "other generator revision", edit: func(raw []byte) []byte { raw[8]++; return raw }, miss: []bool{true, true, true}, skew: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rewrite(t, writeSeries(t, dir, recs), tc.edit)
			for i, err := range readAll(t, dir, recs) {
				if (err != nil) != tc.miss[i] {
					t.Errorf("slot %d: err %v, want miss = %v", i, err, tc.miss[i])
				}
				if want := map[bool]error{false: ErrCorrupt, true: ErrVersionSkew}[tc.skew]; err != nil && !errors.Is(err, want) {
					t.Errorf("slot %d missed with %v, want %v", i, err, want)
				}
			}
		})
	}

	// What the reader presents decides as much as what the file holds.
	dir := t.TempDir()
	writeSeries(t, dir, recs)
	s, err := OpenSeries(dir, testRevision)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k, n := recs[1].Key, len(recs[1].Values)
	for name, read := range map[string]func() ([]float64, error){
		"another key":          func() ([]float64, error) { return s.Read(1, []byte("t00001/google|other---key"), n) },
		"a shorter key":        func() ([]float64, error) { return s.Read(1, k[:len(k)-1], n) },
		"fewer values":         func() ([]float64, error) { return s.Read(1, k, n-1) },
		"more values":          func() ([]float64, error) { return s.Read(1, k, n+1) },
		"a negative length":    func() ([]float64, error) { return s.Read(1, k, -1) },
		"a neighbour's slot":   func() ([]float64, error) { return s.Read(2, k, n) },
		"a slot past the last": func() ([]float64, error) { return s.Read(3, k, n) },
		"a negative slot":      func() ([]float64, error) { return s.Read(-1, k, n) },
	} {
		if got, err := read(); err == nil {
			t.Errorf("reading with %s returned %v", name, got)
		}
	}
	if _, err := s.Read(1, k, n); err != nil {
		t.Errorf("the record itself: %v", err)
	}
}

// TestSeriesCommitOrder: the series file is published through the same
// fsync-before-rename routine as every checkpoint, and a write that fails
// leaves the file it would have replaced in place.
func TestSeriesCommitOrder(t *testing.T) {
	var log []string
	origSync, origRename, origDir := fsyncFile, renameFile, fsyncDir
	defer func() { fsyncFile, renameFile, fsyncDir = origSync, origRename, origDir }()
	fsyncFile = func(f *os.File) error { log = append(log, "fsync "+filepath.Ext(f.Name())); return origSync(f) }
	renameFile = func(from, to string) error {
		log = append(log, "rename "+filepath.Ext(to))
		return origRename(from, to)
	}
	fsyncDir = func(dir string) { log = append(log, "fsync dir"); origDir(dir) }

	dir := t.TempDir()
	recs := testSeries()
	first := writeSeries(t, dir, recs)
	if want := []string{"fsync .tmp", "rename .ser", "fsync dir"}; !slices.Equal(log, want) {
		t.Errorf("series write did %v, want %v", log, want)
	}

	fsyncFile = func(*os.File) error { return errors.New("disk on fire") }
	s, err := OpenSeries(dir, testRevision)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write(recs); err == nil {
		t.Fatal("write with a failing fsync succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); !slices.Equal(left, []string{first}) {
		t.Errorf("failed write left %v, want only %s", left, first)
	}
	for i, err := range readAll(t, dir, recs) {
		if err != nil {
			t.Errorf("slot %d after the failed write: %v", i, err)
		}
	}
}

// TestSeriesIndexClaimIsBounded: a header claiming four billion records
// over a short file is turned down on the claim, before the index is
// allocated.
func TestSeriesIndexClaimIsBounded(t *testing.T) {
	raw := make([]byte, serHeaderLen+64)
	copy(raw, SeriesMagic)
	binary.LittleEndian.PutUint32(raw[4:], SeriesVersion)
	binary.LittleEndian.PutUint32(raw[8:], testRevision)
	binary.LittleEndian.PutUint32(raw[12:], 0xffffffff)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := openSeriesFile(bytes.NewReader(raw), int64(len(raw)), testRevision); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("lying index opened with %v", err)
		}
	})
	if allocs > 8 { // the reader and the error, not 32 GiB of index
		t.Errorf("rejecting the claim cost %v allocations", allocs)
	}
}

// FuzzLoadSeries throws arbitrary bytes — seeded with a valid series file
// and torn, bit-flipped, skewed and length-lying variants — at the series
// reader, asking for records under arbitrary keys and lengths. Whatever
// comes in, a read is a typed miss or exactly the values a clean record
// holds under that key and length; nothing panics, and nothing is
// allocated beyond the bytes present.
func FuzzLoadSeries(f *testing.F) {
	recs := testSeries()
	raw, err := os.ReadFile(writeSeries(f, f.TempDir(), recs))
	if err != nil {
		f.Fatal(err)
	}
	second := bytes.Index(raw, recs[1].Key) - serRecHeaderLen
	k, n := recs[1].Key, len(recs[1].Values)
	f.Add(raw, 1, k, n)
	f.Add(raw, 0, recs[0].Key, len(recs[0].Values))
	f.Add(raw, 1, k, n+1)
	f.Add(raw, 1, k, 1<<40)
	f.Add(raw, 7, k, n)
	f.Add(raw[:second+20], 1, k, n)    // torn inside the record
	f.Add(raw[:second], 1, k, n)       // torn between records
	f.Add(raw[:serHeaderLen], 0, k, n) // header only
	f.Add(raw[:serHeaderLen-1], 0, k, n)
	f.Add([]byte{}, 0, k, n)
	f.Add([]byte("not-rssr-at-all!!!!"), 0, k, n)

	flipped := bytes.Clone(raw)
	flipped[second+serRecHeaderLen+len(k)+3] ^= 0x40 // inside the record's values
	f.Add(flipped, 1, k, n)

	skewed := bytes.Clone(raw)
	skewed[4] = 9 // future version
	f.Add(skewed, 1, k, n)

	lying := bytes.Clone(raw)
	copy(lying[12:], []byte{0xff, 0xff, 0xff, 0x7f}) // 2G records claimed
	f.Add(lying, 1, k, n)

	// An index that passes its CRC but points past the file, so the bound
	// on the record read — not the index check — has to hold.
	astray := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(astray[serHeaderLen+8:], 1<<62)
	sumAt := serHeaderLen + 8*len(recs)
	binary.LittleEndian.PutUint32(astray[sumAt:], crc32.ChecksumIEEE(astray[:sumAt]))
	f.Add(astray, 1, k, n)

	f.Fuzz(func(t *testing.T, data []byte, slot int, key []byte, n int) {
		sf, err := openSeriesFile(bytes.NewReader(data), int64(len(data)), testRevision)
		if err != nil {
			if sf != nil || (!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionSkew)) {
				t.Fatalf("open returned (%v, %v)", sf, err)
			}
			return
		}
		values, err := sf.read(slot, key, n)
		if err != nil {
			if values != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read returned (%v, %v)", values, err)
			}
			return
		}
		if len(values) != n || 8*n > len(data) {
			t.Fatalf("asked for %d values of a %d-byte image, got %d", n, len(data), len(values))
		}
		// A hit is this key followed by these values, somewhere in the image.
		body := bytes.Clone(key)
		for _, v := range values {
			body = appendFloat(body, v)
		}
		if !bytes.Contains(data, body) {
			t.Fatalf("read returned %v under %q, which the image does not hold", values, key)
		}
	})
}

// appendFloat is the float encoding series records share with the wire
// codec, under the name FuzzLoadSeries has always called it by.
func appendFloat(b []byte, v float64) []byte { return wire.AppendFloat(b, v) }
