package fleet

import (
	"context"
	"math"
	"os"
	"path/filepath"
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

// TestRingLayoutSegmentWarmStarts: testdata/ring-calibration holds the
// newest segment of a four-tenant DefaultConfig fleet stopped after 14
// rounds by a build whose calibration blob was a step ring (each ring had
// wrapped). Every tenant warm-starts from it with every section loaded
// (its breakers are positions today's Breaker.Load accepts), and each
// restored window grades like the one this build keeps over the same 14
// rounds: the same steps, skipped count and coverage bits, the rolling
// wQL within 1e-12.
func TestRingLayoutSegmentWarmStarts(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MaxRounds = 14
	ref, err := New(cfg)
	must(t, err)
	_, err = ref.Run(context.Background())
	must(t, err)

	cfg.StateDir = t.TempDir()
	const seg = "segment-00000013.seg"
	raw, err := os.ReadFile(filepath.Join("testdata", "ring-calibration", seg))
	must(t, err)
	must(t, os.WriteFile(filepath.Join(cfg.StateDir, seg), raw, 0o600))
	c, err := New(cfg)
	must(t, err)
	if c.warmCount != cfg.Tenants {
		t.Fatalf("%d of %d tenants warm-started", c.warmCount, cfg.Tenants)
	}
	for i, tn := range c.tenants {
		if tn.partial {
			t.Errorf("%s: a section of the parent's checkpoint did not load", tn.ID)
		}
		if tn.cal == nil || ref.tenants[i].cal == nil {
			t.Fatalf("%s: no calibration window restored or kept", tn.ID)
		}
		got, want := tn.cal.Snapshot(), ref.tenants[i].cal.Snapshot()
		if got.Steps != want.Steps || got.Skipped != want.Skipped || got.Steps != stepsPerDay() {
			t.Errorf("%s: %d steps and %d skipped restored, want %d and %d", tn.ID, got.Steps, got.Skipped, want.Steps, want.Skipped)
		}
		for l := range want.Coverage {
			if got.Coverage[l] != want.Coverage[l] {
				t.Errorf("%s: restored coverage %v, want %v", tn.ID, got.Coverage, want.Coverage)
			}
		}
		if math.Abs(got.WQL-want.WQL) > 1e-12*want.WQL {
			t.Errorf("%s: restored wQL %v, want %v", tn.ID, got.WQL, want.WQL)
		}
	}
}
