package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"robustscale/internal/obs"
)

// fleetsim runs the command in-process and returns its exit code, stdout
// and stderr. The decision store is process-wide and the summary reports
// its total, so every run starts from an empty one.
func fleetsim(t *testing.T, args string) (int, string, string) {
	t.Helper()
	obs.DefaultDecisions.Reset()
	var stdout, stderr bytes.Buffer
	code := exitCode(run(context.Background(), strings.Fields(args), &stdout, &stderr), &stderr)
	return code, stdout.String(), stderr.String()
}

// summary decodes a run's JSON summary, dropping the keys that are not
// part of the determinism contract: wall-clock timing and the echoed
// -workers flag.
func summary(t *testing.T, stdout string) map[string]any {
	t.Helper()
	var rep map[string]any
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, stdout)
	}
	delete(rep, "timing")
	delete(rep, "workers")
	return rep
}

// TestGoldenFleetHash pins the 200-tenant default replay: a refactor of
// anything under the control loop must not move it.
func TestGoldenFleetHash(t *testing.T) {
	code, stdout, stderr := fleetsim(t, "-tenants 200 -per-tenant=false")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if got := summary(t, stdout)["fleet_hash"]; got != "afb0a7355923cf4b" {
		t.Errorf("fleet_hash = %v, want afb0a7355923cf4b", got)
	}
}

// TestFleetHashTable pins one fleet hash per configuration: the 200-tenant
// default, the same fleet on qmlp (every tenant fitted through the Dense
// backward kernels) and on the seasonal-naive fan, the pooled fleet under
// the chaos presets that drive the apply breaker and pool quarantine, the
// default fleet under forecaster faults, and the serverless fleet with its
// wake defaults, alone and under a wake storm against a binding pool. The
// last three rows put every per-step fault class the apply stage reads
// under a hash: the wake faults, apply and node-kill faults on a pooled
// serverless fleet, and node kills alone. The guard must be transparent
// wherever the forecaster does not fail: every row without forecaster
// faults hashes the same with -guard=false.
func TestFleetHashTable(t *testing.T) {
	for _, tc := range []struct {
		args, hash     string
		forecastFaults bool
	}{
		{"-tenants 200", "afb0a7355923cf4b", false},
		{"-tenants 200 -forecaster qmlp", "5931d93fba46abc0", false},
		{"-tenants 200 -forecaster naive", "4f4e396fc99c8f42", false},
		{"-tenants 200 -pool 220 -chaos apply", "d252020f0b76e535", false},
		{"-tenants 200 -pool 220 -chaos all", "a7984854941c09ae", true},
		{"-tenants 200 -pool 220 -chaos fleet", "08c34d9f4e9c7a0f", true},
		{"-tenants 200 -chaos forecast", "fd9e04368b3c98a4", true},
		{"-tenants 200 -serverless", "e000d8f415fbe70f", false},
		{"-tenants 200 -serverless -pool 240 -chaos wake-storm", "e11e2f94dfc78927", false},
		{"-tenants 200 -serverless -chaos wake", "24b566b3514f7c27", false},
		{"-tenants 200 -serverless -pool 240 -chaos all", "838a8c513470fb04", true},
		{"-tenants 200 -chaos node-kill", "a618428cd417c957", false},
	} {
		runs := []string{""}
		if !tc.forecastFaults {
			runs = append(runs, " -guard=false")
		}
		for _, extra := range runs {
			code, stdout, stderr := fleetsim(t, tc.args+extra+" -per-tenant=false")
			if code != 0 {
				t.Fatalf("%s%s: exit %d\n%s", tc.args, extra, code, stderr)
			}
			if got := summary(t, stdout)["fleet_hash"]; got != tc.hash {
				t.Errorf("%s%s: fleet_hash = %v, want %s", tc.args, extra, got, tc.hash)
			}
		}
	}
}

func TestWorkerCountInvisibleInSummary(t *testing.T) {
	var outs [2][]byte
	for i, workers := range []string{"1", "4"} {
		code, stdout, stderr := fleetsim(t, "-tenants 40 -workers "+workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d\n%s", workers, code, stderr)
		}
		var err error
		if outs[i], err = json.Marshal(summary(t, stdout)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("-workers 1 and -workers 4 summaries differ:\n%s\n%s", outs[0], outs[1])
	}
}

// TestCalibrationMetricsIndependentOfWorkers: the fleet exports one
// calibration plane pooled over every tenant's window, so the
// -metrics dump of its four families is the same for any worker count.
func TestCalibrationMetricsIndependentOfWorkers(t *testing.T) {
	series := regexp.MustCompile(`(?m)^robustscale_forecast_(coverage|coverage_error|rolling_wql|calibration_samples)[ {].*$`)
	var dumps [2]string
	for i, workers := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "metrics.txt")
		code, _, stderr := fleetsim(t, "-tenants 200 -per-tenant=false -metrics "+path+" -workers "+workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d\n%s", workers, code, stderr)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dumps[i] = strings.Join(series.FindAllString(string(raw), -1), "\n")
	}
	if dumps[0] == "" {
		t.Fatal("-metrics dump holds no calibration series")
	}
	if dumps[0] != dumps[1] {
		t.Errorf("calibration series differ:\n-workers 1:\n%s\n-workers 4:\n%s", dumps[0], dumps[1])
	}
}

func TestNonsenseSizesExitTwoWithUsage(t *testing.T) {
	for _, args := range []string{"-tenants 0", "-tenants 5 -workers -1", "-tenants 5 -horizon 0", "-tenants 5 -theta 0",
		"-tenants 5 -days 0", "-tenants 5 -units 0", "-tenants 5 -zones 0", "-tenants 5 -pool -5",
		"-tenants 5 -quarantine-rounds 0", "-tenants 5 -forecaster bogus", "-tenants 5 -strategy bogus",
		"-tenants 5 -chaos bogus", "-tenants 5 -serverless -wake-slo -1"} {
		code, stdout, stderr := fleetsim(t, args)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", args, code)
		}
		if stdout != "" {
			t.Errorf("%s: wrote a summary: %s", args, stdout)
		}
		if !strings.Contains(stderr, "Usage of fleetsim") || !strings.Contains(stderr, "fleetsim: ") {
			t.Errorf("%s: stderr lacks the usage or the reason:\n%s", args, stderr)
		}
	}
	// Values the flags themselves refuse, instead of a default or a clamp
	// quietly replacing them later.
	for _, args := range []string{"-tenants 5 -burn-windows nonsense", "-tenants 5 -state-retain 0",
		"-tenants 5 -checkpoint-interval 0", "-tenants 5 -checkpoint-interval -2",
		"-tenants 5 -tau NaN", "-tenants 5 -tau 1.5", "-tenants 5 -tau 0", "-tenants 5 -tau2 NaN", "-tenants 5 -tau2 1"} {
		code, stdout, stderr := fleetsim(t, args)
		if code != 2 || stdout != "" {
			t.Errorf("%s: exit %d, want 2; stdout %q", args, code, stdout)
		}
		if !strings.Contains(stderr, "invalid value") || !strings.Contains(stderr, "Usage of fleetsim") {
			t.Errorf("%s: stderr lacks the reason or the usage:\n%s", args, stderr)
		}
	}
}
