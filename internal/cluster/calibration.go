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
// Every Observe updates, in O(levels) time, the window's per-level
// covered-step counts (actuals at or below the level's forecast) and
// pinball-loss sums, from which Snapshot reads per-level coverage and the
// rolling mean weighted quantile loss. A Calibration exports nothing
// itself: a CalibrationFold pools the windows of a whole fleet into the
// robustscale_forecast_* gauges once per round.
//
// Calibration is safe for concurrent use, though the control loop is its
// only writer in practice.
type Calibration struct {
	levels []float64
	window int

	mu        sync.Mutex
	actuals   []float64 // ring of realized workloads
	preds     []float64 // ring of quantile rows, len(levels) values per slot
	next      int
	count     int
	covered   []int     // per level: covered steps currently in window
	pinball   []float64 // per level: pinball-loss sum over window
	actualSum float64
	skipped   uint64 // non-finite observations refused
}

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

// NewCalibration builds a tracker for the given quantile levels over a
// rolling window of that many steps.
func NewCalibration(levels []float64, window int) (*Calibration, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cluster: calibration needs at least one quantile level")
	}
	if window < 1 {
		return nil, fmt.Errorf("cluster: non-positive calibration window %d", window)
	}
	for _, tau := range levels {
		if !(tau > 0 && tau < 1) {
			return nil, fmt.Errorf("cluster: calibration level %v outside (0, 1)", tau)
		}
	}
	// Levels, pinball sums, actuals and predictions share one array.
	l := len(levels)
	cells := make([]float64, 2*l+window*(l+1))
	return &Calibration{
		levels:  append(cells[:0:l], levels...),
		window:  window,
		pinball: cells[l : 2*l : 2*l],
		actuals: cells[2*l : 2*l+window : 2*l+window],
		preds:   cells[2*l+window:],
		covered: make([]int, l),
	}, nil
}

// Levels returns the nominal quantile levels, in order.
func (c *Calibration) Levels() []float64 { return append([]float64(nil), c.levels...) }

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
// the levels refuses the whole round before any step is observed.
func (c *Calibration) ObserveSteps(actuals []float64, rows [][]float64) error {
	if len(actuals) != len(rows) {
		return fmt.Errorf("cluster: %d actuals for %d quantile rows", len(actuals), len(rows))
	}
	for _, row := range rows {
		if len(row) != len(c.levels) {
			return fmt.Errorf("cluster: %d quantile values for %d calibration levels", len(row), len(c.levels))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, actual := range actuals {
		c.observe(actual, rows[i])
	}
	return nil
}

// observe is one step of Observe and ObserveSteps; callers hold the lock
// and have checked the row's width.
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

	row := c.preds[c.next*len(c.levels):][:len(c.levels)]
	if c.count == c.window {
		// Evict the oldest observation from the running sums.
		old := c.actuals[c.next]
		c.actualSum -= old
		for i := range c.levels {
			if row[i] >= old {
				c.covered[i]--
			}
			c.pinball[i] -= metrics.Pinball(c.levels[i], old, row[i])
		}
	} else {
		c.count++
	}
	c.actuals[c.next] = actual
	copy(row, quantiles)
	c.actualSum += actual
	for i, tau := range c.levels {
		if quantiles[i] >= actual {
			c.covered[i]++
		}
		c.pinball[i] += metrics.Pinball(tau, actual, quantiles[i])
	}
	c.next = (c.next + 1) % c.window
}

// rollingWQL computes the mean over levels of 2*QL_tau/sum(actuals) for
// the window; callers hold the lock.
func (c *Calibration) rollingWQL() float64 {
	if c.actualSum <= 0 {
		return 0
	}
	total := 0.0
	for i := range c.levels {
		total += 2 * c.pinball[i] / c.actualSum
	}
	return total / float64(len(c.levels))
}

// Snapshot returns the current rolling statistics.
func (c *Calibration) Snapshot() CalibrationSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := CalibrationSnapshot{
		Levels:   append([]float64(nil), c.levels...),
		Coverage: make([]float64, len(c.levels)),
		WQL:      c.rollingWQL(),
		Steps:    c.count,
		Skipped:  c.skipped,
	}
	for i := range c.levels {
		snap.Coverage[i] = c.coverageOf(i)
	}
	return snap
}

// coverageOf returns level i's observed rolling coverage, 0 over an empty
// window; callers hold the lock.
func (c *Calibration) coverageOf(i int) float64 {
	if c.count == 0 {
		return 0
	}
	return float64(c.covered[i]) / float64(c.count)
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
	f.steps += c.count
	for i, tau := range c.levels {
		l := f.level(tau)
		l.covered += c.covered[i]
		l.count += c.count
		l.pinball += c.pinball[i]
		l.actual += c.actualSum
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
