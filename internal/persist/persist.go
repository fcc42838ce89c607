// Package persist is the durability layer of the control plane: a
// corruption-safe checkpoint subsystem that lets the auto-scaler daemon
// survive crashes and restarts without a cold-start window of blind
// scaling. A checkpoint captures the full control-plane state — trained
// forecaster weights, the rolling calibration window, guard degradation
// state, circuit-breaker state, the current allocation and the bounded
// observability rings — as opaque, component-owned byte sections inside
// one versioned, CRC32-framed snapshot file.
//
// Snapshots are written atomically (temp file in the same directory,
// fsync, rename, directory fsync), so a crash mid-write never damages an
// existing snapshot: the newest complete file always validates. Recovery
// walks the retained snapshots newest-first, validating each frame, and
// falls back to older snapshots — and finally to a cold start — when the
// newest is truncated or bit-flipped. Decoding is bounded: a frame that
// declares an oversized payload is rejected before any allocation, and
// truncated payloads allocate only the bytes actually present.
//
// A fleet checkpoints every tenant at once: segment.go commits one
// round's snapshots as a single file through the same routine, and
// recovery falls back per tenant instead of per file.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"robustscale/internal/obs"
)

// Frame constants of the on-disk format. The golden-file test in this
// package pins the byte layout; bump Version on any incompatible change
// to State or the frame.
const (
	// Magic opens every snapshot file.
	Magic = "RSCP"
	// Version is the current snapshot format version. Version 2 added
	// the tenant id to Fingerprint and the owner-defined Extra section
	// to State (the fleet controller's loop accounting lives there).
	// Version 3 added the SLO section carrying the error-budget tracker
	// so warm restart resumes alerting where the previous run stopped.
	// Version 4 changed no field here: the component sections left gob
	// for the wire codec, and a blob has no version of its own.
	Version = 4
	// headerLen is magic(4) + version(4) + payload length(8) + crc32(4).
	headerLen = 20
	// DefaultMaxBytes bounds the decoded payload of one snapshot.
	DefaultMaxBytes = 1 << 30
	// DefaultRetain is how many snapshots a manager keeps by default.
	DefaultRetain = 3
)

// Sentinel errors distinguish the recovery ladder's rungs: corruption
// (fall back to an older snapshot) from version skew (an operator
// decision) from absence (cold start).
var (
	// ErrCorrupt reports a snapshot that failed frame validation:
	// bad magic, truncation, an oversized payload claim, a CRC mismatch,
	// or an undecodable payload.
	ErrCorrupt = errors.New("persist: corrupt checkpoint")
	// ErrVersionSkew reports a snapshot written by an incompatible
	// format version.
	ErrVersionSkew = errors.New("persist: checkpoint version skew")
	// ErrNoCheckpoint reports that no snapshot survived validation.
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

// Encode frames the state as one snapshot: magic, version, payload
// length, CRC32 (IEEE) of the payload, then the gob payload.
func Encode(w io.Writer, st *State) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return fmt.Errorf("persist: encoding state: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: writing header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("persist: writing payload: %w", err)
	}
	return nil
}

// Decode validates one snapshot frame and returns its state. maxBytes
// bounds the payload (0 means DefaultMaxBytes): an oversized length
// claim is rejected before any allocation, and a truncated payload
// allocates only the bytes actually present — corrupted input returns
// an error, never a panic or an unbounded allocation.
func Decode(r io.Reader, maxBytes int64) (*State, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersionSkew, v, Version)
	}
	length := binary.LittleEndian.Uint64(hdr[8:16])
	if length > uint64(maxBytes) {
		return nil, fmt.Errorf("%w: payload claims %d bytes, limit %d", ErrCorrupt, length, maxBytes)
	}
	// Copy through a limited reader into a growing buffer: a frame whose
	// declared length lies about a short file allocates only what the
	// file actually holds.
	var payload bytes.Buffer
	n, err := io.Copy(&payload, io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCorrupt, err)
	}
	if uint64(n) != length {
		return nil, fmt.Errorf("%w: payload truncated at %d of %d bytes", ErrCorrupt, n, length)
	}
	if sum := crc32.ChecksumIEEE(payload.Bytes()); sum != binary.LittleEndian.Uint32(hdr[16:20]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	var st State
	if err := gob.NewDecoder(&payload).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
	}
	return &st, nil
}

// seqDir is a directory of sequence-numbered files sharing one name
// pattern, and the one commit routine of the package: the single-state
// Manager, the fleet SegmentStore and the SeriesStore all publish through
// it.
type seqDir struct {
	dir, prefix, suffix string
	// files are the retained file paths, oldest first, as of the scan at
	// open plus every commit since; nextSeq continues past the newest.
	files   []string
	nextSeq uint64
}

// openSeqDir creates the directory if needed and scans it, so commits
// continue the sequence and prune from what is already there.
func openSeqDir(dir, prefix, suffix string) (seqDir, error) {
	if dir == "" {
		return seqDir{}, fmt.Errorf("persist: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return seqDir{}, fmt.Errorf("persist: creating state dir: %w", err)
	}
	d := seqDir{dir: dir, prefix: prefix, suffix: suffix}
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

// commit publishes the next file of the sequence atomically — temp file
// in the same directory, one fsync, rename into place (the commit
// point), directory fsync — then prunes the files beyond retain. A crash
// at any point leaves every previously committed file intact; the temp
// file is removed only when a step before the rename fails. It returns
// the committed path and size.
func (d *seqDir) commit(retain int, write func(io.Writer) error) (string, int64, error) {
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
	for len(d.files) > retain {
		_ = os.Remove(d.files[0]) // a file someone else already removed is pruned all the same
		d.files = d.files[1:]
	}
	return final, counting.n, nil
}

// commitCheckpoint is commit for a file that is a checkpoint: it feeds
// the checkpoint instruments, once per committed file.
func (d *seqDir) commitCheckpoint(retain int, write func(io.Writer) error) (string, error) {
	t0 := time.Now()
	path, size, err := d.commit(retain, write)
	if err != nil {
		return "", err
	}
	ckptWrites.Inc()
	ckptBytes.Set(float64(size))
	ckptWriteSeconds.ObserveSince(t0)
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

// Manager owns one state directory: sequence-numbered snapshot files,
// atomic writes, bounded retention, and newest-first recovery. It is
// not safe for concurrent use; the control loop is its only caller.
type Manager struct {
	seqDir
	// Retain is how many snapshots to keep (default DefaultRetain).
	Retain int
	// MaxBytes bounds one snapshot's payload on read (default
	// DefaultMaxBytes).
	MaxBytes int64
}

// Manager-owned snapshot files are checkpoint-<seq>.ckpt.
const (
	snapshotPrefix = "checkpoint-"
	snapshotSuffix = ".ckpt"
)

// NewManager opens (creating if needed) the state directory and scans
// existing snapshots so new writes continue the sequence.
func NewManager(dir string, retain int) (*Manager, error) {
	d, err := openSeqDir(dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		return nil, err
	}
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Manager{seqDir: d, Retain: retain}, nil
}

// Snapshots returns the retained snapshot paths, oldest first.
func (m *Manager) Snapshots() []string { return m.list() }

// Write persists one snapshot atomically (see seqDir.commit) and prunes
// snapshots beyond Retain. It returns the snapshot path.
func (m *Manager) Write(st *State) (string, error) {
	return m.commitCheckpoint(m.Retain, func(w io.Writer) error { return Encode(w, st) })
}

// RecoverInfo describes how a recovery concluded.
type RecoverInfo struct {
	// Path is the snapshot the state was restored from.
	Path string
	// Rejected lists snapshots that failed validation, newest first.
	Rejected []string
}

// Recover walks the retained snapshots newest-first and returns the
// first that validates, recording rejected snapshots in the corruption
// counter. With no snapshots at all it returns (nil, info, nil) — a
// clean cold start; when snapshots exist but none validates it returns
// ErrNoCheckpoint (wrapped), and the caller should cold-start too.
func (m *Manager) Recover() (*State, RecoverInfo, error) {
	snaps := m.Snapshots()
	var info RecoverInfo
	if len(snaps) == 0 {
		return nil, info, nil
	}
	var lastErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := m.load(snaps[i])
		if err != nil {
			info.Rejected = append(info.Rejected, snaps[i])
			ckptCorrupt.Inc()
			lastErr = err
			continue
		}
		info.Path = snaps[i]
		ckptRecoveries.Inc()
		return st, info, nil
	}
	return nil, info, fmt.Errorf("%w: all %d snapshots rejected, last: %v", ErrNoCheckpoint, len(snaps), lastErr)
}

// load reads and validates one snapshot file.
func (m *Manager) load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: opening snapshot: %w", err)
	}
	defer f.Close()
	maxBytes := m.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return Decode(f, maxBytes)
}

// CheckpointWrites returns the process-wide checkpoint write count;
// tests and the daemon's status surface read it back.
func CheckpointWrites() float64 { return ckptWrites.Value() }

// CheckpointRecoveries returns the process-wide recovery count.
func CheckpointRecoveries() float64 { return ckptRecoveries.Value() }

// CheckpointCorrupt returns how many snapshots recovery has rejected.
func CheckpointCorrupt() float64 { return ckptCorrupt.Value() }
