package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"robustscale/internal/wire"
)

// maxSnapshotCells bounds the floats a loaded tracker allocates up front:
// a snapshot's window is a size its reader allocates by, not a count of
// bytes present, so Load rejects anything larger (the fleet's
// tracker is 53 cells).
const maxSnapshotCells = 1 << 20

// Save writes the rolling window so a restarted control plane resumes
// forecast-health monitoring with its accumulated evidence instead of a
// blind warm-up period: the levels, the window negated (no blob of the
// older step-ring layout holds a negative one), the skipped count, then
// one run of floats: the window's record and the record of each bucket
// holding steps, oldest first (layout in DESIGN.md §8). The window's own
// sums are saved as they stand, so a restored tracker goes on with their
// bits.
func (c *Calibration) Save(w io.Writer) error {
	c.mu.Lock()
	stride := 2 + 2*len(c.levels)
	b := wire.AppendFloats(wire.Scratch(w), c.levels)
	b = wire.AppendVarints(b, -int64(c.window))
	b = binary.AppendUvarint(b, c.skipped)
	// Until the ring wraps the buckets after the head are empty; once it
	// has, they are the oldest. An empty window saves its record alone.
	older, newer := c.sums[stride*(2+c.head):], c.sums[stride:stride*(2+c.head)]
	if len(older) > 0 && older[0] == 0 {
		older = nil
	}
	if c.sums[0] == 0 {
		newer = nil
	}
	b = wire.AppendFloats(b, c.sums[:stride], older, newer)
	c.mu.Unlock()
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("cluster: saving calibration: %w", err)
	}
	return nil
}

// Load makes c the tracker Save wrote, through Reset (so its one
// allocation is the tracker's array). A blob in the older step-ring
// layout (a positive window, then the retained actuals and their
// quantile rows, oldest first) loads by replaying its steps, so a
// checkpoint written before the buckets still warm-starts.
func (c *Calibration) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	var lv [4]float64 // room for the levels of any tracker the loops build
	levels, window, skipped := rd.FloatsTo(lv[:0]), rd.Int(), rd.Uvarint()
	ring := window > 0
	if !ring {
		window = -window
	}
	// The window bound comes first: bucketSize may walk window/12 divisors.
	if rd.Err() == nil && (window < 1 || window > maxSnapshotCells || calibrationCells(len(levels), window) > maxSnapshotCells) {
		rd.Fail(fmt.Errorf("a %d-step window over %d levels passes the %d-value limit", window, len(levels), maxSnapshotCells))
	}
	err := rd.Err()
	if err == nil {
		err = c.Reset(levels, window)
	}
	if err != nil {
		return fmt.Errorf("cluster: loading calibration: %w", err)
	}
	if ring {
		actuals, rows := rd.Floats(), rd.Floats()
		if err = rd.Done(); err == nil && (len(rows) != len(actuals)*len(levels) || len(actuals) > window) {
			err = fmt.Errorf("%d actuals and %d prediction values for %d levels over %d steps", len(actuals), len(rows), len(levels), window)
		}
		for i := 0; err == nil && i < len(actuals); i++ {
			c.observe(actuals[i], rows[i*len(levels):][:len(levels)])
		}
	} else {
		// The records land in the tracker's own array, the window's
		// first, then the saved buckets from the ring's first slot on.
		records := rd.FloatsTo(c.sums[:0])
		if err = rd.Done(); err == nil {
			err = c.check(records)
		}
		c.head = max(len(records)/(2+2*len(levels))-2, 0)
	}
	if err != nil {
		return fmt.Errorf("cluster: loading calibration: %w", err)
	}
	c.skipped = skipped
	return nil
}

// check holds loaded records to what admit leaves: a window record, then
// at most a ring of buckets, every one full but the newest, which holds
// steps; finite sums, whole covered counts within step counts, and each
// of the window's counts its buckets' total.
func (c *Calibration) check(records []float64) error {
	l, stride := len(c.levels), 2+2*len(c.levels)
	n := len(records)/stride - 1
	if len(records)%stride != 0 || n < 0 || len(records) > len(c.sums) {
		return fmt.Errorf("%d record values, not a window record and up to %d buckets of %d", len(records), c.window/c.bucket, stride)
	}
	for slot := 0; slot <= n; slot++ {
		rec := records[stride*slot:][:stride]
		for f, v := range rec {
			count := f != 1 && f < 2+l
			if math.IsNaN(v) || math.IsInf(v, 0) || count && (v < 0 || v > rec[0] || v != math.Trunc(v)) {
				return fmt.Errorf("record %d of %d is malformed: %v", slot, n, rec)
			}
		}
		if slot > 0 && (rec[0] < 1 || rec[0] > float64(c.bucket) || slot < n && rec[0] != float64(c.bucket)) {
			return fmt.Errorf("bucket %d of %d holds %v steps of %d", slot, n, rec[0], c.bucket)
		}
	}
	for f := range 2 + l {
		total := 0.0
		for slot := 1; slot <= n; slot++ {
			total += records[stride*slot+f]
		}
		if f != 1 && total != records[f] {
			return fmt.Errorf("the window record counts %v where its buckets count %v", records[f], total)
		}
	}
	return nil
}
