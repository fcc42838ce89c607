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
robustscale_forecast_coverage{tau="0.5"} 0.1875
robustscale_forecast_coverage{tau="0.6"} 0.3194444444444444
robustscale_forecast_coverage{tau="0.7"} 0.5694444444444444
robustscale_forecast_coverage{tau="0.8"} 0.7013888888888888
robustscale_forecast_coverage{tau="0.9"} 0.7638888888888888
robustscale_forecast_coverage{tau="0.95"} 0.8888888888888888
robustscale_forecast_coverage{tau="0.99"} 1
robustscale_forecast_coverage_error{tau="0.5"} -0.3125
robustscale_forecast_coverage_error{tau="0.6"} -0.28055555555555556
robustscale_forecast_coverage_error{tau="0.7"} -0.13055555555555554
robustscale_forecast_coverage_error{tau="0.8"} -0.0986111111111112
robustscale_forecast_coverage_error{tau="0.9"} -0.13611111111111118
robustscale_forecast_coverage_error{tau="0.95"} -0.061111111111111116
robustscale_forecast_coverage_error{tau="0.99"} 0.010000000000000009
robustscale_forecast_rolling_wql 0.043079318578805356`
	if got := calibrationLines(t); got != want {
		t.Errorf("calibration series after the replay:\n got:\n%s\nwant:\n%s", got, want)
	}
}
