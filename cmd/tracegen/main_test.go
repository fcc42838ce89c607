package main

import (
	"bytes"
	"strings"
	"testing"
)

// tracegen runs the command in-process and returns its exit code, stdout
// and stderr.
func tracegen(args string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := exitCode(run(strings.Fields(args), &stdout, &stderr), &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSummaryGolden(t *testing.T) {
	code, stdout, stderr := tracegen("-days 2 -units 4 -seed 42 -summary")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	const want = `alibaba/cpu          steps=288 step=10m0s mean=174.9 std=70.0 min=75.8 p50=174.9 p95=264.5 max=279.9
                     period=0 (strength 0.00) residualCV=0.400 spikeRate=0.0000
alibaba/memory       steps=288 step=10m0s mean=252.9 std=55.2 min=165.4 p50=254.3 p95=326.1 max=381.3
                     period=0 (strength 0.00) residualCV=0.218 spikeRate=0.0000
alibaba/disk         steps=288 step=10m0s mean=143.0 std=16.8 min=117.3 p50=141.5 p95=164.7 max=171.1
                     period=0 (strength 0.00) residualCV=0.117 spikeRate=0.0000
`
	if stdout != want {
		t.Errorf("summary:\n got:\n%s\nwant:\n%s", stdout, want)
	}
}

func TestCSVHeaderAndRows(t *testing.T) {
	code, stdout, stderr := tracegen("-days 2 -units 4 -seed 42")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if lines[0] != "timestamp,cpu,disk,memory" {
		t.Errorf("header %q, want timestamp,cpu,disk,memory", lines[0])
	}
	if got := len(lines) - 1; got != 2*144 {
		t.Errorf("%d rows, want %d (two days of 10-minute steps)", got, 2*144)
	}
}

func TestUnknownDatasetExitsTwoWithUsage(t *testing.T) {
	for _, tc := range []struct{ args, reason string }{
		{"-dataset azure", `unknown dataset "azure"`},
		{"-units 0", "-units must be positive"},
		{"-units -4", "-units must be positive"},
		{"-days 0", "-days and -units must be positive, got 0 and 64"},
		{"-days -1 -dataset google", "-days and -units must be positive, got -1 and 64"},
	} {
		code, stdout, stderr := tracegen(tc.args)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.args, code)
		}
		if stdout != "" {
			t.Errorf("%s: wrote output: %s", tc.args, stdout)
		}
		if !strings.Contains(stderr, tc.reason) || !strings.Contains(stderr, "Usage of tracegen") {
			t.Errorf("%s: stderr lacks the reason or the usage:\n%s", tc.args, stderr)
		}
	}
}
