package persist

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// FuzzLoadSegment throws arbitrary bytes — seeded with a valid fleet
// segment, its truncated, bit-flipped, version-skewed and length-lying
// variants, and a Manager's one-record segment — at the segment reader.
// Whatever comes in, parsing returns the records that validated plus nil
// or a typed error, decoding a record returns a state or ErrCorrupt, and
// nothing panics; length claims are only ever compared with the 1MiB
// bound and the bytes present, never allocated.
func FuzzLoadSegment(f *testing.F) {
	s, err := OpenSegments(f.TempDir(), 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	for i, id := range []string{"t00000", "t00001"} {
		sl, err := s.Slot(i, id)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := sl.Write(&State{
			Fingerprint:    Fingerprint{Strategy: "robust", Tenant: id, Dataset: "alibaba", Seed: 1, Theta: 6, Horizon: 12, Tau: 0.9},
			Origin:         12,
			PrevAlloc:      5,
			ForecasterKind: "tft",
			Forecaster:     []byte{1, 2, 3},
		}); err != nil {
			f.Fatal(err)
		}
	}
	path, err := s.Commit()
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	second := segHeaderLen + (len(raw)-segHeaderLen)/2 // the two records are the same size
	f.Add(raw)
	f.Add(raw[:second+recHeaderLen+3]) // torn inside the second record
	f.Add(raw[:second])                // torn between records
	f.Add(raw[:segHeaderLen])          // header only
	f.Add(raw[:segHeaderLen-1])        // truncated header
	f.Add([]byte{})
	f.Add([]byte("not-rssg-at-all"))

	flipped := bytes.Clone(raw)
	flipped[second-4] ^= 0x40 // inside the first record's state
	f.Add(flipped)

	skewed := bytes.Clone(raw)
	skewed[4] = 9 // future version
	f.Add(skewed)

	lying := bytes.Clone(raw)
	copy(lying[segHeaderLen+2:], []byte{0xff, 0xff, 0xff, 0x7f}) // first record claims 2GiB
	f.Add(lying)

	if path, err = newManager(f, f.TempDir(), 1).Write(testState()); err != nil {
		f.Fatal(err)
	}
	single, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := parseSegment(data, 1<<20)
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("untyped parse error: %v", err)
		}
		for id, payload := range recs {
			if id == "" || len(id) > maxTenantIDLen {
				t.Fatalf("record kept under a %d-byte id", len(id))
			}
			st, err := decodeRecord(payload)
			if (err == nil) == (st == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
				t.Fatalf("decodeRecord returned (%v, %v)", st, err)
			}
		}
	})
}
