package main

import (
	"regexp"
	"strings"
	"testing"

	"robustscale/internal/obs"
)

// calibrationSeries matches the sample lines of the four calibration
// families the daemon exports.
var calibrationSeries = regexp.MustCompile(`(?m)^robustscale_forecast_(coverage|coverage_error|rolling_wql|calibration_samples)[ {].*$`)

// calibrationLines returns the calibration families' sample lines of the
// process-wide registry, in exposition order.
func calibrationLines(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Join(calibrationSeries.FindAllString(b.String(), -1), "\n")
}

// TestCalibrationMetrics pins what the daemon exports on /metrics about
// its forecast's calibration after a short replay: per-level coverage and
// its error against the nominal level, the rolling wQL and the window's
// sample count, each a pure function of the replay. The adaptive strategy
// grades every level of the scaling grid, so each tau label is rewritten
// by this run whatever ran before it in the process.
func TestCalibrationMetrics(t *testing.T) {
	daemon(t, "-strategy adaptive -days 1 -epochs 1 -horizon 12")
	const want = `robustscale_forecast_calibration_samples 144
robustscale_forecast_coverage{tau="0.5"} 0.2916666666666667
robustscale_forecast_coverage{tau="0.6"} 0.3888888888888889
robustscale_forecast_coverage{tau="0.7"} 0.6458333333333334
robustscale_forecast_coverage{tau="0.8"} 0.8194444444444444
robustscale_forecast_coverage{tau="0.9"} 0.9166666666666666
robustscale_forecast_coverage{tau="0.95"} 0.9791666666666666
robustscale_forecast_coverage{tau="0.99"} 1
robustscale_forecast_coverage_error{tau="0.5"} -0.20833333333333331
robustscale_forecast_coverage_error{tau="0.6"} -0.21111111111111108
robustscale_forecast_coverage_error{tau="0.7"} -0.054166666666666585
robustscale_forecast_coverage_error{tau="0.8"} 0.019444444444444375
robustscale_forecast_coverage_error{tau="0.9"} 0.016666666666666607
robustscale_forecast_coverage_error{tau="0.95"} 0.029166666666666674
robustscale_forecast_coverage_error{tau="0.99"} 0.010000000000000009
robustscale_forecast_rolling_wql 0.04018463359513978`
	if got := calibrationLines(t); got != want {
		t.Errorf("calibration series after the replay:\n got:\n%s\nwant:\n%s", got, want)
	}
}
