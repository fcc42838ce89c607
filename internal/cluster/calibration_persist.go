package cluster

import (
	"encoding/binary"
	"fmt"
	"io"

	"robustscale/internal/wire"
)

// maxSnapshotCells bounds window × (levels + 1), the floats a calibration
// ring allocates up front: a snapshot's window is a size its reader
// allocates by, not a count of bytes present, so LoadCalibration rejects
// anything larger (the fleet's ring is 288 cells, the daemon's a few
// thousand).
const maxSnapshotCells = 1 << 20

// Save writes the rolling window so a restarted control plane resumes
// forecast-health monitoring with its accumulated evidence instead of a
// blind warm-up period: the config, then the retained observations
// oldest-first (layout in DESIGN.md §8). Rolling sums are not persisted —
// LoadCalibration re-observes the window, which rebuilds them exactly.
func (c *Calibration) Save(w io.Writer) error {
	l := len(c.levels)
	c.mu.Lock()
	b := wire.AppendFloats(wire.Scratch(w), c.levels)
	b = binary.AppendVarint(b, int64(c.window))
	b = binary.AppendUvarint(b, c.skipped)
	// The retained observations are the ring from its oldest slot to the
	// end, then from the start up to next.
	oldest, wrapped := c.next-c.count, 0
	if oldest < 0 {
		oldest, wrapped = oldest+c.window, c.next
	}
	end := oldest + c.count - wrapped
	b = wire.AppendFloats(b, c.actuals[oldest:end], c.actuals[:wrapped])
	b = wire.AppendFloats(b, c.preds[oldest*l:end*l], c.preds[:wrapped*l])
	c.mu.Unlock()
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("cluster: saving calibration: %w", err)
	}
	return nil
}

// LoadCalibration restores a tracker saved by Save, replaying the
// retained window so every rolling sum matches the checkpointed process.
func LoadCalibration(r io.Reader) (*Calibration, error) {
	rd := wire.ReadFrom(r)
	levels, window, skipped := rd.Floats(), rd.Int(), rd.Uvarint()
	actuals, rows := rd.Floats(), rd.Floats()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("cluster: loading calibration: %w", err)
	}
	if len(rows) != len(actuals)*len(levels) {
		return nil, fmt.Errorf("cluster: calibration snapshot has %d actuals for %d prediction values at %d levels",
			len(actuals), len(rows), len(levels))
	}
	if len(actuals) > window {
		return nil, fmt.Errorf("cluster: calibration snapshot holds %d observations for a %d-step window",
			len(actuals), window)
	}
	if window > maxSnapshotCells/(len(levels)+1) {
		return nil, fmt.Errorf("cluster: calibration snapshot claims a %d-step window over %d levels, past the %d-value limit",
			window, len(levels), maxSnapshotCells)
	}
	c, err := NewCalibration(levels, window)
	if err != nil {
		return nil, fmt.Errorf("cluster: loading calibration: %w", err)
	}
	for i, actual := range actuals {
		if err := c.Observe(actual, rows[i*len(levels):][:len(levels)]); err != nil {
			return nil, fmt.Errorf("cluster: replaying calibration window: %w", err)
		}
	}
	c.mu.Lock()
	c.skipped = skipped
	c.mu.Unlock()
	return c, nil
}
