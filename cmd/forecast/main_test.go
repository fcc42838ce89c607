package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// forecastCmd runs the command in-process and returns its exit code,
// stdout and stderr.
func forecastCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := exitCode(run(args, &stdout, &stderr), &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTrainThenPredictFromFile trains a seeded model into a file and
// predicts from that file alone: the forecast table is pinned.
func TestTrainThenPredictFromFile(t *testing.T) {
	model := filepath.Join(t.TempDir(), "mlp.model")
	common := []string{"-model", "mlp", "-epochs", "1", "-context", "24", "-horizon", "6"}
	code, stdout, stderr := forecastCmd(append([]string{"-mode", "train", "-out", model}, common...)...)
	if code != 0 || stdout != "" || !strings.Contains(stderr, "forecast: saved to "+model) {
		t.Fatalf("train: exit %d, stdout %q\n%s", code, stdout, stderr)
	}
	code, stdout, stderr = forecastCmd(append([]string{"-mode", "predict", "-in", model}, common...)...)
	if code != 0 {
		t.Fatalf("predict: exit %d\n%s", code, stderr)
	}
	const want = `time          P50     P70     P90
Sep 29 00:00  1286.6  1761.7  2447.7
Sep 29 00:10  1133.4  1245.5  1407.4
Sep 29 00:20  1243.3  1462.7  1779.5
Sep 29 00:30  1396.7  1600.6  1895.0
Sep 29 00:40  1349.3  1652.6  2090.4
Sep 29 00:50  1448.0  1762.0  2215.2
`
	if stdout != want {
		t.Errorf("predict:\n got:\n%s\nwant:\n%s", stdout, want)
	}
}

func TestBadCommandLineExitsTwo(t *testing.T) {
	for _, tc := range []struct{ args, reason string }{
		{"-bogus", "flag provided but not defined: -bogus"},
		{"-mode forecast", `unknown -mode "forecast"`},
		{"-model prophet", `-model "prophet"`},
		{"-levels 0.5,x", `invalid value "0.5,x" for flag -levels`},
		{"-mode backtest -context -3", `invalid value "-3" for flag -context: must be positive`},
		{"-mode train -model mlp -epochs -1", `invalid value "-1" for flag -epochs: must be positive`},
		{"-mode backtest -horizon 0", `invalid value "0" for flag -horizon: must be positive`},
		{"-model arima -period -1", `invalid value "-1" for flag -period: must not be negative`},
	} {
		code, stdout, stderr := forecastCmd(strings.Fields(tc.args)...)
		if code != 2 || stdout != "" {
			t.Errorf("%s: exit %d, want 2; stdout %q", tc.args, code, stdout)
		}
		if !strings.Contains(stderr, tc.reason) || !strings.Contains(stderr, "Usage of forecast") {
			t.Errorf("%s: stderr lacks the reason or the usage:\n%s", tc.args, stderr)
		}
	}
	// A run that cannot load its model fails as a run, not a command line.
	if code, _, stderr := forecastCmd("-mode", "predict", "-model", "mlp", "-in", filepath.Join(t.TempDir(), "none")); code != 1 || !strings.Contains(stderr, "forecast: open ") {
		t.Errorf("predict from a missing file: exit %d, stderr %q", code, stderr)
	}
}
