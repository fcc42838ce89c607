package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
)

// runCmd runs the command in-process and returns its exit code,
// stdout and stderr.
func runCmd(args string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := exitCode(run(context.Background(), strings.Fields(args), &stdout, &stderr), &stderr)
	return code, stdout.String(), stderr.String()
}

// doneLine is the one wall-clock line of a run's stdout.
var doneLine = regexp.MustCompile(`(?m)^\[.* done in .*\]\n`)

// TestResilienceGoldens pins every deterministic line of the resilience
// matrices: the guarded single-tenant loop under each fault class (the
// apply breaker holds a 3-step cooldown), the pooled serverless fleet,
// where pool quarantine and the wake breaker trip, the fleet behind a
// pool that binds only under chaos, and the pool-less serverless fleet
// with its wake rows.
func TestResilienceGoldens(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-chaos matrix -quick", `
== Resilience matrix (alibaba, chaos=matrix) ==
-----------------------------------------------
profile    strategy      violation  Δviolation  avg nodes  Δcost  degraded  holds  killed
forecast   reactive-max  0.1609     +0.0000     27.25      +0.00  0         0      0
telemetry  reactive-max  0.1634     +0.0025     31.19      +3.94  0         0      0
apply      reactive-max  0.2178     +0.0569     27.27      +0.02  0         155    0
node-kill  reactive-max  0.1609     +0.0000     27.25      +0.00  0         0      10
all        reactive-max  0.1980     +0.0371     29.84      +2.59  0         121    6
forecast   robust-0.9    0.1889     +0.1861     26.32      -4.01  1         0      0
telemetry  robust-0.9    0.0028     +0.0000     30.33      +0.00  0         0      0
apply      robust-0.9    0.0278     +0.0250     30.46      +0.12  0         141    0
node-kill  robust-0.9    0.0028     +0.0000     30.33      +0.00  0         0      10
all        robust-0.9    0.1917     +0.1889     26.45      -3.88  1         101    6
forecast   predictive    0.3111     +0.0000     27.36      +0.00  0         0      0
telemetry  predictive    0.3111     +0.0000     27.36      +0.00  0         0      0
apply      predictive    0.3194     +0.0083     27.48      +0.12  0         141    0
node-kill  predictive    0.3111     +0.0000     27.36      +0.00  0         0      10
all        predictive    0.3361     +0.0250     27.44      +0.09  0         101    6
faults injected: 1633, degraded rounds: 2, holds: 760, degraded decisions: 2
`},
		{"-fleet-chaos matrix -fleet-pool 10 -fleet-serverless", `
== Fleet resilience matrix (8 tenants, pool=10, serverless=true) ==
-------------------------------------------------------------------
preset             violations       cost       shed   quaran      blast  affected/by  wakefail  wake p99 wakeSLO
(baseline)               1341       4586          -        -          -            -
zone-outage              1341       4586       7515       14    0.0000         0/0         0       30s    true
pool-collapse            1402       4325       7741       15    0.6250         5/8         0       30s    true
admission-reject         1355       4641       6125       14    0.6250         5/8         0       30s    true
fleet                    1383       4568       6534       14    0.0000         0/0         0       30s    true
wake                     1331       4560       7527       14    0.0000         0/0         8     1827s   false
wake-storm               1344       4569       7515       14    0.0000         0/0         3     1827s   false
`},
		{"-fleet-chaos matrix -fleet-tenants 8 -fleet-pool 32", `
== Fleet resilience matrix (8 tenants, pool=32, serverless=false) ==
--------------------------------------------------------------------
preset             violations       cost       shed   quaran      blast  affected/by
(baseline)                 13       3776          -        -          -            -
zone-outage                13       3776          7        0    0.0000         0/2
pool-collapse             125       3337        291        5    0.6250         5/8
admission-reject           18       3785          0        0    0.2500         2/8
fleet                      59       3685         61        0    0.0000         0/0
`},
		{"-fleet-chaos matrix -fleet-serverless -fleet-tenants 8", `
== Fleet resilience matrix (8 tenants, pool=0, serverless=true) ==
------------------------------------------------------------------
preset             violations       cost       shed   quaran      blast  affected/by  wakefail  wake p99 wakeSLO
(baseline)                 49      15981          -        -          -            -
zone-outage                49      15983          0        0    0.0000         0/0         0       30s    true
pool-collapse              49      15981          0        0    0.0000         0/8         0       30s    true
admission-reject           49      15981          0        0    0.0000         0/8         0       30s    true
fleet                      73      15901          0        0    0.0000         0/0         0       30s    true
wake                       48      15929          0        0    0.0000         0/0         6     1827s   false
wake-storm                 55      15942          0        0    0.0000         0/0         3     1827s   false
`},
	}
	for _, tc := range cases {
		code, stdout, stderr := runCmd(tc.args)
		if code != 0 {
			t.Fatalf("experiment %s: exit %d\n%s", tc.args, code, stderr)
		}
		if got := doneLine.ReplaceAllString(stdout, ""); got != tc.want {
			t.Errorf("experiment %s:\n got:\n%s\nwant:\n%s", tc.args, got, tc.want)
		}
	}
}

func TestBadCommandLineExitsTwo(t *testing.T) {
	for _, tc := range []struct{ args, reason string }{
		{"-bogus", "flag provided but not defined: -bogus"},
		{"-id fig99 -quick", `unknown id "fig99"`},
	} {
		code, stdout, stderr := runCmd(tc.args)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.args, code)
		}
		if stdout != "" {
			t.Errorf("%s: wrote output: %s", tc.args, stdout)
		}
		if !strings.Contains(stderr, tc.reason) || !strings.Contains(stderr, "Usage of experiment") {
			t.Errorf("%s: stderr lacks the reason or the usage:\n%s", tc.args, stderr)
		}
	}
}
