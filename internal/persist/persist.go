// Package persist is the durability layer of the control plane: a
// corruption-safe checkpoint subsystem that lets the auto-scaler daemon
// survive crashes and restarts without a cold-start window of blind
// scaling. A checkpoint captures the full control-plane state — trained
// forecaster weights, the rolling calibration window, guard degradation
// state, circuit-breaker state, the current allocation and the bounded
// observability rings — as opaque, component-owned byte sections inside
// one CRC32-framed record of a versioned segment file (segment.go).
//
// Files are written atomically (temp file in the same directory, fsync,
// rename, directory fsync), so a crash mid-write never damages an
// existing checkpoint: the newest complete file always validates.
// Recovery walks the retained segments newest-first, validating each
// record, and falls back to older segments — and finally to a cold start
// — when the newest is truncated or bit-flipped. Decoding is bounded: a
// record that declares an oversized payload is rejected before any
// allocation.
//
// There is one format. A single tenant's Manager commits one-record
// segments; a fleet commits one round of every tenant's records as a
// single segment through the same routine, and both recover through the
// same per-tenant fallback ladder.
package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"robustscale/internal/obs"
)

const (
	// DefaultMaxBytes bounds the payload of one checkpoint record.
	DefaultMaxBytes = 1 << 30
	// DefaultRetain is how many checkpoint files a store keeps by default.
	DefaultRetain = 3
)

// Sentinel errors distinguish the recovery ladder's rungs: corruption
// (fall back to an older segment) from version skew (an operator
// decision) from absence (cold start).
var (
	// ErrCorrupt reports a checkpoint that failed validation: bad
	// magic, truncation, an oversized length claim, a CRC mismatch, or an
	// undecodable record.
	ErrCorrupt = errors.New("persist: corrupt checkpoint")
	// ErrVersionSkew reports a segment written by an incompatible
	// format version.
	ErrVersionSkew = errors.New("persist: checkpoint version skew")
	// ErrNoCheckpoint reports that no checkpoint survived validation.
	ErrNoCheckpoint = errors.New("persist: no usable checkpoint")
)

// Checkpoint instruments on the process-wide registry; the CI
// kill-restart smoke job asserts these behave across a SIGKILL.
var (
	ckptWrites = obs.Default.Counter(
		"robustscale_checkpoint_writes_total",
		"Checkpoint snapshots written (atomically) to the state directory.")
	ckptRecoveries = obs.Default.Counter(
		"robustscale_checkpoint_recoveries_total",
		"Successful warm-start recoveries from a checkpoint snapshot.")
	ckptCorrupt = obs.Default.Counter(
		"robustscale_checkpoint_corrupt_total",
		"Snapshot files rejected during recovery (truncated, bit-flipped, or version-skewed).")
	ckptBytes = obs.Default.Gauge(
		"robustscale_checkpoint_last_bytes",
		"Size in bytes of the most recently written checkpoint snapshot.")
	ckptWriteSeconds = obs.Default.Histogram(
		"robustscale_checkpoint_write_seconds",
		"Wall-clock latency of one checkpoint write (encode, fsync, rename).", nil)
)

// Fingerprint identifies the run configuration a snapshot belongs to.
// Recovery refuses a snapshot whose fingerprint does not match the
// restarted daemon's flags: warm-starting a robust-0.9 Alibaba run into
// an adaptive Google run would silently plan from the wrong model.
type Fingerprint struct {
	// Strategy is the strategy flag value ("robust", "adaptive", ...).
	Strategy string
	// Tenant is the tenant id the snapshot belongs to ("default" for a
	// single-tenant daemon). A fleet segment holds one record per
	// tenant; the fingerprint check keeps a tenant from warm-starting
	// into a neighbour's snapshot even if records are mislabelled on
	// disk.
	Tenant string
	// Dataset is the workload name ("alibaba", "google").
	Dataset string
	// Seed is the trace seed.
	Seed int64
	// Theta is the per-node workload threshold.
	Theta float64
	// Horizon is the planning horizon in steps.
	Horizon int
	// Tau and Tau2 are the quantile levels in effect.
	Tau, Tau2 float64
}

// State is the full control-plane image of one checkpoint. Component
// state (models, calibration windows, guard and breaker positions, the
// observability rings) travels as opaque byte sections encoded by the
// owning packages, so persist depends on none of them and the layout
// stays stable as components evolve.
type State struct {
	// SavedAt is the virtual time of the checkpoint.
	SavedAt time.Time
	// Fingerprint identifies the run configuration (see Fingerprint).
	Fingerprint Fingerprint
	// Origin is the series index of the next unplanned round; recovery
	// resumes planning here.
	Origin int
	// PrevAlloc is the fleet size in effect at Origin.
	PrevAlloc int
	// Steps, Violations and Holds are the control-loop counters at
	// Origin, so a warm-started run reports continuous totals.
	Steps, Violations, Holds int
	// Rho is the calibrated uncertainty threshold of the adaptive
	// strategy (zero when unused); persisting it skips recalibration.
	Rho float64
	// ForecasterKind names the model held in Forecaster ("tft", ...).
	ForecasterKind string
	// Forecaster is the trained model snapshot (forecast Save format);
	// nil for model-free strategies.
	Forecaster []byte
	// Calibration is the rolling calibration window (cluster.Calibration
	// Save format); nil before the first fan.
	Calibration []byte
	// Guard is the degradation-ladder state (scaler.Guard Save format).
	Guard []byte
	// Breaker is the circuit-breaker state (scaler.Breaker Save format).
	Breaker []byte
	// Journal is the bounded event journal (obs.Journal Save format).
	Journal []byte
	// Decisions is the decision ring (obs.DecisionStore Save format).
	Decisions []byte
	// SLO is the error-budget tracker state (obs.SLOTracker Save
	// format), so a warm restart neither forgets budget already spent
	// nor re-fires alerts that were already firing.
	SLO []byte
	// Extra is an owner-defined byte section for loop state that has no
	// component of its own: the fleet controller checkpoints its rolling
	// allocation hash and cost accounting here. persist never interprets
	// it.
	Extra []byte
}

// Blob runs a component's Save into the byte section a State carries for
// it; a failed Save yields nil, which the owner restores as fresh state.
func Blob(save func(io.Writer) error) []byte {
	var b bytes.Buffer
	if err := save(&b); err != nil {
		return nil
	}
	return b.Bytes()
}

// Encode writes the state as a one-record segment keyed by its
// fingerprint's tenant: exactly the bytes a Manager for that tenant
// commits.
func Encode(w io.Writer, st *State) error {
	if err := ValidTenantID(st.Fingerprint.Tenant); err != nil {
		return err
	}
	return writeOneRecord(w, st.Fingerprint.Tenant, st)
}

// seqDir is a directory of sequence-numbered files sharing one name
// pattern, and the one commit routine of the package: a tenant's Manager,
// the fleet SegmentStore and the SeriesStore all publish through it.
type seqDir struct {
	dir, prefix, suffix string
	// retain is how many committed files the directory keeps.
	retain int
	// files are the retained file paths, oldest first, as of the scan at
	// open plus every commit since; nextSeq continues past the newest.
	files   []string
	nextSeq uint64
}

// openSeqDir creates the directory if needed and scans it, so commits
// continue the sequence and prune from what is already there. A retain of
// zero or less keeps DefaultRetain files.
func openSeqDir(dir, prefix, suffix string, retain int) (seqDir, error) {
	if dir == "" {
		return seqDir{}, fmt.Errorf("persist: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return seqDir{}, fmt.Errorf("persist: creating state dir: %w", err)
	}
	if retain <= 0 {
		retain = DefaultRetain
	}
	d := seqDir{dir: dir, prefix: prefix, suffix: suffix, retain: retain}
	d.files = d.list()
	if n := len(d.files); n > 0 {
		seq, _ := d.seq(d.files[n-1])
		d.nextSeq = seq + 1
	}
	return d, nil
}

// seq parses the sequence number out of one of the directory's file
// names (or paths).
func (d *seqDir) seq(name string) (uint64, bool) {
	base := filepath.Base(name)
	if len(base) <= len(d.prefix)+len(d.suffix) ||
		!strings.HasPrefix(base, d.prefix) || !strings.HasSuffix(base, d.suffix) {
		return 0, false
	}
	var seq uint64
	for _, ch := range base[len(d.prefix) : len(base)-len(d.suffix)] {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(ch-'0')
	}
	return seq, true
}

// list reads the directory and returns the paths of its sequence files,
// oldest first.
func (d *seqDir) list() []string {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if _, ok := d.seq(e.Name()); ok && e.Type().IsRegular() {
			out = append(out, filepath.Join(d.dir, e.Name()))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := d.seq(out[i])
		b, _ := d.seq(out[j])
		return a < b
	})
	return out
}

// segments returns the retained files as segments, newest first, each
// read on first use.
func (d *seqDir) segments() []*segment {
	segs := make([]*segment, len(d.files))
	for i, path := range d.files {
		segs[len(segs)-1-i] = &segment{path: path}
	}
	return segs
}

// commit publishes the next file of the sequence atomically — temp file
// in the same directory, one fsync, rename into place (the commit
// point), directory fsync — then prunes the files beyond retain. A crash
// at any point leaves every previously committed file intact; the temp
// file is removed only when a step before the rename fails. It returns
// the committed path and size.
func (d *seqDir) commit(write func(io.Writer) error) (string, int64, error) {
	final := filepath.Join(d.dir, fmt.Sprintf("%s%08d%s", d.prefix, d.nextSeq, d.suffix))
	tmp, err := os.CreateTemp(d.dir, ".ckpt-*.tmp")
	if err != nil {
		return "", 0, fmt.Errorf("persist: creating temp snapshot: %w", err)
	}
	counting := &countingWriter{w: tmp}
	err = write(counting)
	if err == nil {
		if err = fsyncFile(tmp); err != nil {
			err = fmt.Errorf("persist: fsync snapshot: %w", err)
		}
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("persist: closing snapshot: %w", cerr)
	}
	if err == nil {
		if err = renameFile(tmp.Name(), final); err != nil {
			err = fmt.Errorf("persist: publishing snapshot: %w", err)
		}
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort: the error being returned is the one that matters
		return "", 0, err
	}
	fsyncDir(d.dir)
	d.nextSeq++
	d.files = append(d.files, final)
	for len(d.files) > d.retain {
		_ = os.Remove(d.files[0]) // a file someone else already removed is pruned all the same
		d.files = d.files[1:]
	}
	return final, counting.n, nil
}

// commitCheckpoint is commit for a file that is a checkpoint: it feeds
// the checkpoint instruments, once per committed file.
func (d *seqDir) commitCheckpoint(write func(io.Writer) error) (string, error) {
	t0 := obs.Mono()
	path, size, err := d.commit(write)
	if err != nil {
		return "", err
	}
	ckptWrites.Inc()
	ckptBytes.Set(float64(size))
	ckptWriteSeconds.Observe((obs.Mono() - t0).Seconds())
	return path, nil
}

// countingWriter tracks the bytes a commit wrote.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// The durability steps of a commit, variables so a test can pin their
// order: file fsync, then rename, then directory fsync.
var (
	fsyncFile  = (*os.File).Sync
	renameFile = os.Rename
	// fsyncDir fsyncs a directory so a rename survives power loss;
	// failures are ignored (some filesystems refuse directory fsync).
	fsyncDir = func(dir string) {
		if d, err := os.Open(dir); err == nil {
			_ = d.Sync()
			_ = d.Close()
		}
	}
)

// Manager is one tenant's checkpoint store over a state directory of its
// own: every Write commits a one-record segment, the newest retain of
// them are kept, and Recover runs the fleet's per-tenant ladder over
// them. It is not safe for concurrent use; the control loop is its only
// caller.
type Manager struct {
	seqDir
	tenant string
}

// NewManager opens (creating if needed) the state directory of the tenant
// whose id keys every record, and scans the segments already there so new
// writes continue the sequence.
func NewManager(dir, tenant string, retain int) (*Manager, error) {
	if err := ValidTenantID(tenant); err != nil {
		return nil, err
	}
	d, err := openSeqDir(dir, segmentPrefix, segmentSuffix, retain)
	if err != nil {
		return nil, err
	}
	return &Manager{seqDir: d, tenant: tenant}, nil
}

// Write commits the state as the next one-record segment atomically (see
// seqDir.commit) and prunes segments beyond the retained count. It
// returns the segment path.
func (m *Manager) Write(st *State) (string, error) {
	return m.commitCheckpoint(func(w io.Writer) error { return writeOneRecord(w, m.tenant, st) })
}

// RecoverInfo describes how a recovery concluded.
type RecoverInfo struct {
	// Path is the segment the state was restored from.
	Path string
	// Rejected lists segments lost to the tenant, newest first.
	Rejected []string
}

// Recover runs the tenant's recovery ladder (recoverTenant) over the
// retained segments, those this Manager committed included.
func (m *Manager) Recover() (*State, RecoverInfo, error) {
	return recoverTenant(m.segments(), m.tenant)
}

// CheckpointWrites returns the process-wide checkpoint write count;
// tests and the daemon's status surface read it back.
func CheckpointWrites() float64 { return ckptWrites.Value() }
