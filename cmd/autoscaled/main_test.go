package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// totalPrefixes are the stdout lines that are pure functions of the
// replay in virtual time: identical flags must print them byte for byte,
// whatever the wall clock, the restart history or the loop behind them.
var totalPrefixes = []string{"final:", "resilience:", "serverless:", "slo:", "calibration over last"}

// totals keeps only the deterministic total lines of a daemon's stdout.
func totals(stdout string) string {
	var keep []string
	for _, line := range strings.Split(stdout, "\n") {
		for _, p := range totalPrefixes {
			if strings.HasPrefix(line, p) {
				keep = append(keep, line)
				break
			}
		}
	}
	return strings.Join(keep, "\n")
}

// processLocal matches the figures inside the total lines that count
// this process's cluster operations (the simulated cluster is rebuilt on
// restart, so they are not carried by checkpoints); lifetime comparisons
// across restarts drop them.
var processLocal = regexp.MustCompile(`, \d+ scale-outs, \d+ scale-ins|\d+ node failures, `)

// lifetimeTotals is totals without the process-local figures.
func lifetimeTotals(stdout string) string {
	return processLocal.ReplaceAllString(totals(stdout), "")
}

// cancelAfter is a stderr sink that cancels a context once it has seen
// the n-th log line containing mark. The daemon logs from its replay
// loop, so the cancellation lands at a deterministic step and the loop
// stops at the next round boundary.
type cancelAfter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	mark   string
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil && strings.Contains(string(p), c.mark) {
		if c.n--; c.n <= 0 {
			c.cancel()
			c.cancel = nil
		}
	}
	return c.buf.Write(p)
}

func (c *cancelAfter) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// daemon runs the daemon in-process to completion and returns its
// stdout and stderr.
func daemon(t *testing.T, args string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), strings.Fields(args), &stdout, &stderr); err != nil {
		t.Fatalf("autoscaled %s: %v\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestReplayTotals pins the end-of-run totals of the daemon's replay for
// every strategy family, under chaos, and across the zero boundary.
func TestReplayTotals(t *testing.T) {
	cases := []struct{ name, args, want string }{
		{"reactive", "-strategy reactive-max -days 1", `final: 144 steps, 26 violations (18.06%), 40 scale-outs, 26 scale-ins
resilience: 0 degraded rounds, 0 apply holds, 0 node failures, final mode normal
slo: target 0.01 window 144: 26/144 bad steps, budget remaining -17.0556, 34 transitions, 0 active alerts, first firing tick 4`},
		{"reactive-chaos", "-strategy reactive-max -days 1 -chaos all", `final: 144 steps, 29 violations (20.14%), 179 scale-outs, 163 scale-ins
resilience: 0 degraded rounds, 42 apply holds, 2 node failures, final mode normal
slo: target 0.01 window 144: 29/144 bad steps, budget remaining -19.1389, 28 transitions, 0 active alerts, first firing tick 4`},
		{"robust-tft", "-days 1 -epochs 1 -horizon 12", `final: 144 steps, 27 violations (18.75%), 48 scale-outs, 32 scale-ins
resilience: 0 degraded rounds, 0 apply holds, 0 node failures, final mode normal
slo: target 0.01 window 144: 27/144 bad steps, budget remaining -17.7500, 12 transitions, 0 active alerts, first firing tick 35
calibration over last 144 steps: rolling wQL 0.0352; coverage 0.9:0.76`},
		{"robust-tft-h72", "-days 2", `final: 288 steps, 42 violations (14.58%), 71 scale-outs, 57 scale-ins
resilience: 0 degraded rounds, 0 apply holds, 0 node failures, final mode normal
slo: target 0.01 window 144: 42/288 bad steps, budget remaining -12.8889, 42 transitions, 0 active alerts, first firing tick 26
calibration over last 144 steps: rolling wQL 0.0135; coverage 0.9:0.74`},
		{"adaptive-tft", "-strategy adaptive -days 1 -epochs 1 -horizon 12", `final: 144 steps, 26 violations (18.06%), 51 scale-outs, 35 scale-ins
resilience: 0 degraded rounds, 0 apply holds, 0 node failures, final mode normal
slo: target 0.01 window 144: 26/144 bad steps, budget remaining -17.0556, 14 transitions, 0 active alerts, first firing tick 35
calibration over last 144 steps: rolling wQL 0.0431; coverage 0.5:0.19 0.6:0.32 0.7:0.57 0.8:0.70 0.9:0.76 0.95:0.89 0.99:1.00`},
		{"serverless", "-strategy reactive-max -days 2 -serverless -dataset google", `final: 288 steps, 36 violations (12.50%), 118 scale-outs, 96 scale-ins
resilience: 0 degraded rounds, 0 apply holds, 0 node failures, final mode normal
serverless: 0 parks, 0 wakes, 0 blocked parks, 0 parked steps, parked now false
slo: target 0.01 window 144: 36/288 bad steps, budget remaining -14.9722, 102 transitions, 0 active alerts, first firing tick 16`},
		// The issue's serverless case never idles; this one parks and
		// wakes under the all-class fault preset.
		{"serverless-parking-chaos", parkingArgs + " -chaos all", `final: 288 steps, 12 violations (4.17%), 9 scale-outs, 7 scale-ins
resilience: 0 degraded rounds, 75 apply holds, 2 node failures, final mode normal
serverless: 4 parks, 3 wakes, 10 blocked parks, 74 parked steps, parked now true
slo: target 0.01 window 144: 12/288 bad steps, budget remaining -3.1667, 10 transitions, 0 active alerts, first firing tick 38`},
	}
	// The serverless cases log the idle threshold in effect, and the
	// chaos replay logs the apply holds it counts.
	wantLogs := map[string]string{
		"serverless":               "serverless mode: idle below 10.00\n",
		"serverless-parking-chaos": "serverless mode: idle below 1500.00\n",
		"reactive-chaos":           " HOLD: apply to ",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr := daemon(t, tc.args)
			if got := totals(stdout); got != tc.want {
				t.Errorf("autoscaled %s:\n got:\n%s\nwant:\n%s", tc.args, got, tc.want)
			}
			if want := wantLogs[tc.name]; !strings.Contains(stderr, want) {
				t.Errorf("autoscaled %s logged no %q:\n%s", tc.args, want, stderr)
			}
		})
	}
}

// TestStoppedBeforeFirstRound: a daemon stopped before its first round
// ran no step and reports a violation rate of 0, not NaN.
func TestStoppedBeforeFirstRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if err := run(ctx, strings.Fields("-strategy reactive-max -days 1"), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if want := "final: 0 steps, 0 violations (0.00%), 0 scale-outs, 0 scale-ins"; !strings.Contains(stdout.String(), want) {
		t.Errorf("stdout has no %q:\n%s", want, stdout.String())
	}
}

// TestApplyBreakerStdout pins the whole stdout of two chaos replays that
// keep the apply breaker busy: the apply-fault preset behind the default
// 30-minute cooldown, and every fault class across the zero boundary.
func TestApplyBreakerStdout(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-strategy reactive-max -days 3 -chaos apply -seed 7", `
final: 432 steps, 115 violations (26.62%), 99 scale-outs, 84 scale-ins
resilience: 0 degraded rounds, 186 apply holds, 0 node failures, final mode normal
slo: target 0.01 window 144: 115/432 bad steps, budget remaining -20.5278, 70 transitions, 0 active alerts, first firing tick 1
`},
		{"-strategy reactive-max -days 3 -chaos all -seed 7 -serverless -theta 3000 -idle-eps 1500", `
final: 432 steps, 27 violations (6.25%), 17 scale-outs, 8 scale-ins
resilience: 0 degraded rounds, 134 apply holds, 9 node failures, final mode normal
serverless: 4 parks, 3 wakes, 10 blocked parks, 107 parked steps, parked now true
slo: target 0.01 window 144: 27/432 bad steps, budget remaining -4.5556, 24 transitions, 0 active alerts, first firing tick 39
`},
	}
	for _, tc := range cases {
		if stdout, _ := daemon(t, tc.args); stdout != tc.want {
			t.Errorf("autoscaled %s:\n got:\n%s\nwant:\n%s", tc.args, stdout, tc.want)
		}
	}
}

// TestSLOTargetBounds: a negative -slo-target is rejected before the
// replay, as fleetsim rejects it, and 0 turns the SLO plane off.
func TestSLOTargetBounds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), strings.Fields("-strategy reactive-max -days 1 -slo-target -0.1"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "SLO target -0.1 outside (0, 1)") {
		t.Errorf("-slo-target -0.1: error %v, want the target rejected", err)
	}
	if code := exitCode(err, &stderr); code != 1 {
		t.Errorf("-slo-target -0.1: exit status %d, want 1", code)
	}
	if stdout.Len() > 0 {
		t.Errorf("-slo-target -0.1 replayed before rejecting:\n%s", stdout.String())
	}
	if out, _ := daemon(t, "-strategy reactive-max -days 1 -slo-target 0"); strings.Contains(out, "slo:") || !strings.Contains(out, "final:") {
		t.Errorf("-slo-target 0 should replay with the SLO plane off:\n%s", out)
	}
}

const parkingArgs = "-strategy reactive-max -days 2 -serverless -theta 3000 -idle-eps 1500"

// TestKillRestartTotals is the durability oracle: a replay cancelled at
// a round boundary and resumed from its state directory — and resumed
// once more after the newest snapshot is truncated — ends with exactly
// the lifetime totals of the uninterrupted run, warm-starting each time.
func TestKillRestartTotals(t *testing.T) {
	cases := []struct {
		name, args, cadence, mark string
		after                     int
		trains, sparse            bool
	}{
		{"robust-tft", "-days 1 -epochs 1 -horizon 12", "", " scale ", 17, true, false},
		// A sparse cadence leaves the shutdown path's final checkpoint as
		// the only snapshot of the interrupted run.
		{"serverless-parking", parkingArgs, " -checkpoint-interval 100", " scale ", 2, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr := daemon(t, tc.args)
			want := lifetimeTotals(stdout)
			if want == "" {
				t.Fatalf("uninterrupted run printed no totals:\n%s", stdout)
			}
			if tc.trains && !strings.Contains(stderr, "training tft") {
				t.Fatalf("cold run did not train:\n%s", stderr)
			}

			dir := t.TempDir()
			durable := tc.args + tc.cadence + " -state-dir " + dir

			// Run 1: cancelled mid-replay.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &cancelAfter{mark: tc.mark, n: tc.after, cancel: cancel}
			var out1 bytes.Buffer
			if err := run(ctx, strings.Fields(durable), &out1, sink); err != nil {
				t.Fatalf("interrupted run: %v\n%s", err, sink.String())
			}
			log1 := sink.String()
			if !strings.Contains(log1, "shutdown requested") {
				t.Fatalf("interrupted run did not stop on the cancellation:\n%s", log1)
			}
			if tc.sparse && !strings.Contains(log1, "final checkpoint written") {
				t.Fatalf("interrupted run wrote no final checkpoint:\n%s", log1)
			}
			if lifetimeTotals(out1.String()) == want {
				t.Fatalf("interrupted run already reached the final totals; cancel earlier")
			}

			// Run 2: warm restart to the end.
			stdout, stderr = daemon(t, durable)
			assertWarm(t, "resumed run", stderr)
			if got := lifetimeTotals(stdout); got != want {
				t.Errorf("resumed run:\n got:\n%s\nwant:\n%s", got, want)
			}

			// Run 3: the newest snapshot is corrupt; recovery falls back to
			// the one before it and replays the lost round.
			snaps, err := filepath.Glob(filepath.Join(dir, "segment-*.seg"))
			if err != nil || len(snaps) < 2 {
				t.Fatalf("want at least two snapshots in %s, got %v (%v)", dir, snaps, err)
			}
			sort.Strings(snaps)
			if err := os.Truncate(snaps[len(snaps)-1], 100); err != nil {
				t.Fatal(err)
			}
			stdout, stderr = daemon(t, durable)
			assertWarm(t, "run after corruption", stderr)
			if !strings.Contains(stderr, "rejected corrupt") {
				t.Errorf("run after corruption did not log the rejected snapshot:\n%s", stderr)
			}
			if got := lifetimeTotals(stdout); got != want {
				t.Errorf("run after corruption:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func assertWarm(t *testing.T, what, stderr string) {
	t.Helper()
	if !strings.Contains(stderr, "warm start") {
		t.Errorf("%s did not warm-start:\n%s", what, stderr)
	}
	if strings.Contains(stderr, "training tft") {
		t.Errorf("%s retrained the forecaster:\n%s", what, stderr)
	}
}
