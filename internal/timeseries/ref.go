package timeseries

import "time"

// Ref records which history a piece of warm state was derived from, so
// the next call can prove the new history is an append-extension of it
// (the warm contract in forecast/warm.go; the warm forecasters and
// scaler.Guard's watermarks are its consumers). Histories in this
// repository are views over a growing backing array (Series.Slice shares
// Values), so identity of the first element plus an unchanged epoch means
// the shared prefix is literally the same memory. The recorded tail value
// is a tripwire against in-place mutation of the most recently consumed
// observation (and against NaN corruption, which fails the equality and
// forces a cold rebuild).
type Ref struct {
	base  []float64
	start time.Time
	step  time.Duration
	last  float64
}

// Extends reports whether hist is an append-extension of the recorded
// history: same backing array and epoch, at least as long, tail intact.
func (r *Ref) Extends(hist *Series) bool {
	n := len(r.base)
	if n == 0 || hist.Len() < n {
		return false
	}
	if &hist.Values[0] != &r.base[0] || !hist.Start.Equal(r.start) || hist.Step != r.step {
		return false
	}
	return hist.Values[n-1] == r.last
}

// Len returns the length of the recorded history, 0 after Reset.
func (r *Ref) Len() int { return len(r.base) }

// Record remembers hist (non-empty) as the new warm baseline.
func (r *Ref) Record(hist *Series) {
	r.base = hist.Values
	r.start = hist.Start
	r.step = hist.Step
	r.last = hist.Values[hist.Len()-1]
}

// Reset forgets the baseline; Extends reports false until the next Record.
func (r *Ref) Reset() { r.base = nil }
