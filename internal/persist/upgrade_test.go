package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The stale fixtures: checkpoint_v3.ckpt is the golden the version-3
// build wrote, checkpoint_v2.ckpt that golden with the header version
// field rewritten to 2. The CRC covers the payload only, so both frames
// are otherwise pristine — which makes the version check the sole guard
// against decoding a snapshot this build does not understand. For v3 that
// guard is all there is: the frame and State are the current ones, only
// the component sections inside changed codec.
var staleFixtures = []string{"checkpoint_v2.ckpt", "checkpoint_v3.ckpt"}

// TestUpgradePathV2Rejected pins the upgrade behavior for every older
// version: a snapshot written by an older build must fail with
// ErrVersionSkew (not ErrCorrupt, not a gob decode error) before any
// payload decoding.
func TestUpgradePathV2Rejected(t *testing.T) {
	for _, name := range staleFixtures {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("reading golden fixture: %v", err)
		}
		st, err := Decode(bytes.NewReader(raw), 0)
		if st != nil {
			t.Fatalf("%s decoded to a state; version skew must refuse it", name)
		}
		if !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("%s rejected with %v, want ErrVersionSkew", name, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: version skew misclassified as corruption", name)
		}
	}
}

// TestRecoverSkipsVersionSkew drills the operational upgrade path: a
// state directory holding stale v2 and v3 snapshots and one current
// snapshot recovers from the current one; a directory holding only stale
// snapshots reports ErrNoCheckpoint so the caller cold-starts.
func TestRecoverSkipsVersionSkew(t *testing.T) {
	seedStale := func(dir string) {
		t.Helper()
		for i, name := range staleFixtures {
			raw, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("checkpoint-%08d.ckpt", i)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Seed the stale snapshots as the oldest sequences, then write a
	// current snapshot through the manager.
	dir := t.TempDir()
	seedStale(dir)
	m2, err := NewManager(dir, 3) // scans, so the sequence continues past the seeded files
	if err != nil {
		t.Fatal(err)
	}
	want := testState()
	if _, err := m2.Write(want); err != nil {
		t.Fatal(err)
	}
	st, info, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover with a current snapshot present: %v", err)
	}
	if st == nil || st.Fingerprint != want.Fingerprint {
		t.Fatalf("recovered wrong state: %+v", st)
	}
	if got := filepath.Base(info.Path); got != "checkpoint-00000002.ckpt" {
		t.Fatalf("recovered from %q, want the current snapshot", info.Path)
	}

	// Only-stale directory: every snapshot is rejected, caller cold-starts.
	dir2 := t.TempDir()
	seedStale(dir2)
	m3, err := NewManager(dir2, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, info, err = m3.Recover()
	if st != nil {
		t.Fatal("recovered a state from a stale-only directory")
	}
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("stale-only recovery returned %v, want ErrNoCheckpoint", err)
	}
	if len(info.Rejected) != len(staleFixtures) {
		t.Fatalf("rejected %v, want every stale snapshot", info.Rejected)
	}
}
