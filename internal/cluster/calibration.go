package cluster

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"robustscale/internal/metrics"
	"robustscale/internal/obs"
)

// calibrationSkipped counts observations the tracker refused: one NaN
// actual would otherwise poison every rolling sum in the window for a
// full window length.
var calibrationSkipped = obs.Default.Counter(
	"robustscale_forecast_calibration_skipped_total",
	"Calibration observations skipped because the actual or a quantile value was not finite.")

// Calibration grades quantile forecasts against realized workloads online
// over a rolling window, the monitoring loop the paper argues production
// autoscalers need: if the 0.9-quantile band covers far less than 90% of
// realized workloads, the robust strategy's safety margin has silently
// eroded and retraining is due.
//
// The window is a ring of buckets, each the sums of a run of consecutive
// steps: its step count, actual sum, and per level the covered-step count
// (actuals at or below the level's forecast) and pinball-loss sum. A
// window of w steps holds w/b buckets of b steps, b the largest divisor
// of w that leaves at least calibrationBuckets buckets (12 of 12 for the
// fleet's one-day window, one step each below 24). Every Observe adds its
// step, in O(levels) time, to the newest bucket and to the window's own
// sums, from which Snapshot reads per-level coverage and the rolling mean
// weighted quantile loss; a step that finds the ring full first drops the
// oldest bucket whole. So the window holds between w-b+1 and w steps, and
// w exactly at every b-step boundary. A Calibration exports nothing
// itself: a CalibrationFold pools the windows of a whole fleet into the
// robustscale_forecast_* gauges once per round.
//
// Calibration is safe for concurrent use, though the control loop is its
// only writer in practice.
type Calibration struct {
	levels []float64
	window int
	bucket int // steps per bucket

	mu sync.Mutex
	// sums is the window's record, then the ring of bucket records; a
	// record is step count, actual sum, each level's covered count, each
	// level's pinball sum (counts are whole floats, so a bucket leaves the
	// window by one subtraction per field).
	sums    []float64
	head    int // the bucket taking steps
	skipped uint64
}

// calibrationBuckets is the fewest buckets a window is cut into.
const calibrationBuckets = 12

// CalibrationSnapshot is a point-in-time view of the rolling window.
type CalibrationSnapshot struct {
	// Levels are the nominal quantile levels.
	Levels []float64
	// Coverage[i] is the observed coverage of Levels[i].
	Coverage []float64
	// WQL is the rolling mean weighted quantile loss.
	WQL float64
	// Steps is how many observations the window currently holds.
	Steps int
	// Skipped is how many observations were refused as non-finite.
	Skipped uint64
}

// bucketSize is the steps per bucket of a window: its largest divisor
// that still cuts it into calibrationBuckets or more.
func bucketSize(window int) int {
	for b := window / calibrationBuckets; b > 1; b-- {
		if window%b == 0 {
			return b
		}
	}
	return 1
}

// calibrationCells is the floats a tracker over l levels and a window of
// that many steps allocates: its levels, its window record and one record
// per bucket.
func calibrationCells(l, window int) int {
	return l + (2+2*l)*(1+window/bucketSize(window))
}

// NewCalibration builds a tracker for the given quantile levels over a
// rolling window of that many steps.
func NewCalibration(levels []float64, window int) (*Calibration, error) {
	c := new(Calibration)
	if err := c.Reset(levels, window); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset makes c an empty tracker for the given quantile levels over a
// rolling window of that many steps, in one allocation: the levels and
// every record share one array. It is not safe beside other use of c.
func (c *Calibration) Reset(levels []float64, window int) error {
	if len(levels) == 0 {
		return fmt.Errorf("cluster: calibration needs at least one quantile level")
	}
	if window < 1 {
		return fmt.Errorf("cluster: non-positive calibration window %d", window)
	}
	for _, tau := range levels {
		if !(tau > 0 && tau < 1) {
			return fmt.Errorf("cluster: calibration level %v outside (0, 1)", tau)
		}
	}
	l := len(levels)
	cells := make([]float64, calibrationCells(l, window))
	c.levels, c.window, c.bucket = append(cells[:0:l], levels...), window, bucketSize(window)
	c.sums, c.head, c.skipped = cells[l:], 0, 0
	return nil
}

// Observe feeds one realized workload and the quantile row that was
// forecast for its step (values aligned with the tracker's levels). A
// non-finite actual or quantile value is skipped and counted rather than
// admitted: a single NaN in a rolling sum would poison coverage and wQL
// for a full window length.
func (c *Calibration) Observe(actual float64, quantiles []float64) error {
	if len(quantiles) != len(c.levels) {
		return fmt.Errorf("cluster: %d quantile values for %d calibration levels", len(quantiles), len(c.levels))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observe(actual, quantiles)
	return nil
}

// ObserveSteps is Observe over a round's graded steps under one lock:
// actuals[i] against rows[i], in order. A row whose width disagrees with
// the levels refuses the whole round before any step is observed. The
// width check also folds every value of the round into one finiteness
// test (v·0 is 0 for a finite v and NaN otherwise), so a round with no
// bad value admits its steps without testing each again.
func (c *Calibration) ObserveSteps(actuals []float64, rows [][]float64) error {
	if len(actuals) != len(rows) {
		return fmt.Errorf("cluster: %d actuals for %d quantile rows", len(actuals), len(rows))
	}
	poison := 0.0
	for i, row := range rows {
		if len(row) != len(c.levels) {
			return fmt.Errorf("cluster: %d quantile values for %d calibration levels", len(row), len(c.levels))
		}
		poison += actuals[i] * 0
		for _, q := range row {
			poison += q * 0
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if poison == 0 {
		c.admit(actuals, rows)
		return nil
	}
	for i, actual := range actuals {
		c.observe(actual, rows[i])
	}
	return nil
}

// observe is one step of Observe and of a round with a non-finite value:
// it skips and counts a step whose actual or quantile row is not finite
// and admits any other. Callers hold the lock and have checked the row's
// width.
func (c *Calibration) observe(actual float64, quantiles []float64) {
	finite := !math.IsNaN(actual) && !math.IsInf(actual, 0)
	for _, q := range quantiles {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			finite = false
			break
		}
	}
	if !finite {
		c.skipped++
		calibrationSkipped.Inc()
		return
	}
	a, r := [1]float64{actual}, [1][]float64{quantiles}
	c.admit(a[:], r[:])
}

// admit adds finite steps, actuals[s] against rows[s] in order, to the
// window's sums and the newest bucket's in one pass; a step that finds
// that bucket full opens the next. Callers hold the lock and have checked
// every row's width.
func (c *Calibration) admit(actuals []float64, rows [][]float64) {
	l := len(c.levels)
	stride := 2 + 2*l
	win := c.sums[:stride:stride]
	b := c.sums[stride*(1+c.head):][:stride:stride]
	for s, actual := range actuals {
		if int(b[0]) == c.bucket {
			b = c.rotate(stride)
		}
		win[0]++
		b[0]++
		win[1] += actual
		b[1] += actual
		for i, q := range rows[s][:l] {
			if q >= actual {
				win[2+i]++
				b[2+i]++
			}
			p := metrics.Pinball(c.levels[i], actual, q)
			win[2+l+i] += p
			b[2+l+i] += p
		}
	}
}

// rotate opens the bucket after the head and returns it; when it still
// holds the window's oldest steps, they leave the window's sums first.
func (c *Calibration) rotate(stride int) []float64 {
	if c.head++; c.head == c.window/c.bucket {
		c.head = 0
	}
	win, b := c.sums[:stride], c.sums[stride*(1+c.head):][:stride]
	if b[0] > 0 {
		for i, v := range b {
			win[i] -= v
		}
		clear(b)
	}
	return b
}

// Snapshot returns the current rolling statistics: each level's covered
// share of the window's steps (0 over an empty window) and the mean over
// levels of 2·pinball/Σactual (0 unless Σactual > 0).
func (c *Calibration) Snapshot() CalibrationSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, steps, actual := len(c.levels), c.sums[0], c.sums[1]
	snap := CalibrationSnapshot{
		Levels:   append([]float64(nil), c.levels...),
		Coverage: make([]float64, l),
		Steps:    int(steps),
		Skipped:  c.skipped,
	}
	for i := range c.levels {
		if steps > 0 {
			snap.Coverage[i] = c.sums[2+i] / steps
		}
		if actual > 0 {
			snap.WQL += 2 * c.sums[2+l+i] / actual
		}
	}
	snap.WQL /= float64(l)
	return snap
}

// The per-level calibration families. They print nothing until a fold
// gives them a level, and a fold registers the two plain gauges only once
// it sees a window, so a process whose loops never graded a fan exports
// none of the four.
var (
	foldCoverage = obs.Default.GaugeVec(
		"robustscale_forecast_coverage",
		"Observed rolling coverage of each quantile level, pooled over every tenant's calibration window; calibrated forecasts match the tau label.",
		"tau")
	foldCoverageError = obs.Default.GaugeVec(
		"robustscale_forecast_coverage_error",
		"Observed minus nominal rolling coverage, by quantile level, pooled over every tenant's calibration window.",
		"tau")
)

// CalibrationFold pools the calibration windows of a fleet's tenants into
// the four robustscale_forecast_* families and is their only writer: Add
// every tenant's window in tenant-index order, then Publish. Per level tau,
//
//	coverage{tau}       = Σcovered / Σcount over the windows that carry tau
//	coverage_error{tau} = coverage{tau} - tau
//	rolling_wql         = mean over levels of 2·Σpinball / Σactual
//	calibration_samples = Σcount
//
// so a fleet of one exports exactly its window's Snapshot, and the fixed
// order keeps every float sum independent of how many workers ran the
// round. After its first Publish a fold allocates nothing. The zero value
// is ready to use; a fold is not safe for concurrent use.
type CalibrationFold struct {
	levels       []foldLevel // in the order the windows first carried them
	steps        int         // Σcount
	wql, samples *obs.Gauge
}

// foldLevel is one quantile level's pooled window sums and its gauges.
type foldLevel struct {
	tau                     float64
	covered, count          int
	pinball, actual         float64
	coverage, coverageError *obs.Gauge
}

// Add pools one tenant's window; nil, a tenant that has not graded a fan
// yet, adds nothing.
func (f *CalibrationFold) Add(c *Calibration) {
	if c == nil {
		return
	}
	if f.wql == nil {
		f.wql = obs.Default.Gauge("robustscale_forecast_rolling_wql",
			"Rolling mean weighted quantile loss, pooled over every tenant's calibration window.")
		f.samples = obs.Default.Gauge("robustscale_forecast_calibration_samples",
			"Steps currently held in the forecast-calibration windows, summed over every tenant.")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	steps, actual := c.sums[0], c.sums[1]
	f.steps += int(steps)
	for i, tau := range c.levels {
		l := f.level(tau)
		l.covered += int(c.sums[2+i])
		l.count += int(steps)
		l.pinball += c.sums[2+len(c.levels)+i]
		l.actual += actual
	}
}

// level returns the fold's entry for tau, adding it (and creating its two
// series) the first time a window carries it.
func (f *CalibrationFold) level(tau float64) *foldLevel {
	for i := range f.levels {
		if f.levels[i].tau == tau {
			return &f.levels[i]
		}
	}
	label := strconv.FormatFloat(tau, 'g', -1, 64)
	f.levels = append(f.levels, foldLevel{tau: tau,
		coverage: foldCoverage.With(label), coverageError: foldCoverageError.With(label)})
	return &f.levels[len(f.levels)-1]
}

// Publish writes the pooled values and empties the fold for the next
// round. A level no window has observed a step of keeps its series where
// they are.
func (f *CalibrationFold) Publish() {
	if f.wql == nil {
		return
	}
	wql := 0.0
	for i := range f.levels {
		l := &f.levels[i]
		if l.count > 0 {
			cov := float64(l.covered) / float64(l.count)
			l.coverage.Set(cov)
			l.coverageError.Set(cov - l.tau)
		}
		if l.actual > 0 {
			wql += 2 * l.pinball / l.actual
		}
		l.covered, l.count, l.pinball, l.actual = 0, 0, 0, 0
	}
	f.wql.Set(wql / float64(len(f.levels)))
	f.samples.Set(float64(f.steps))
	f.steps = 0
}
