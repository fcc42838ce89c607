package fleet

import (
	"regexp"
	"strings"
	"testing"

	"robustscale/internal/obs"
)

var calibrationSeries = regexp.MustCompile(`(?m)^robustscale_forecast_(coverage|coverage_error|rolling_wql|calibration_samples)[ {].*$`)

// calibrationLines returns the calibration families' sample lines on
// obs.Default.
func calibrationLines(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Join(calibrationSeries.FindAllString(b.String(), -1), "\n")
}

// TestWarmStartExportsRestoredCalibration: New folds the windows a warm
// start restored, so before its first round the fleet already exports
// the calibration plane the checkpointed fleet ended on, whatever another
// fleet in the process exported in between.
func TestWarmStartExportsRestoredCalibration(t *testing.T) {
	cfg := testConfig(8)
	cfg.StateDir, cfg.MaxRounds = t.TempDir(), 3
	runFleet(t, cfg)
	saved := calibrationLines(t)

	other := testConfig(2)
	other.Seed = 7
	runFleet(t, other)
	if calibrationLines(t) == saved {
		t.Fatal("a second fleet exported the same calibration plane; the check below would prove nothing")
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.warmCount != cfg.Tenants {
		t.Fatalf("%d of %d tenants warm-started", c.warmCount, cfg.Tenants)
	}
	if got := calibrationLines(t); got != saved {
		t.Errorf("after the warm start:\n%s\nwant the checkpointed fleet's:\n%s", got, saved)
	}
}
