package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"robustscale/internal/fleet"
)

// TestNonsenseSizesExitTwo: sizes that used to spin forever (-horizon 0),
// panic (-horizon -3), print NaN (-days 0) or replay with every step a
// violation (-theta -1), names no loop knows (a strategy, dataset or
// chaos preset) and inverted adaptive levels are rejected before any
// training, with the typed error the exit status 2 hangs on.
func TestNonsenseSizesExitTwo(t *testing.T) {
	for _, args := range []string{"-horizon 0", "-horizon -3", "-days 0", "-theta -1",
		"-strategy bogus", "-dataset bogus", "-chaos bogus"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), strings.Fields(args+" -epochs 1"), &stdout, &stderr)
		if !errors.Is(err, fleet.ErrConfig) {
			t.Errorf("autoscaled %s: error %v, want fleet.ErrConfig", args, err)
		}
		if code := exitCode(err, &stderr); code != 2 {
			t.Errorf("autoscaled %s: exit status %d, want 2", args, code)
		}
		if strings.Contains(stderr.String(), "training") || stdout.Len() > 0 {
			t.Errorf("autoscaled %s ran before rejecting its sizes:\n%s%s", args, stdout.String(), stderr.String())
		}
	}
	// Adaptive levels with tau above tau2 each pass their flag's (0, 1)
	// check, but Algorithm 1 cannot plan with them: the refusal names
	// both, before -listen binds. (The context is cancelled, so a run
	// that gets further ends at once.)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	const inverted = "-strategy adaptive -tau 0.95 -tau2 0.9"
	err := run(ctx, strings.Fields(inverted+" -listen 127.0.0.1:0 -days 1 -epochs 1 -horizon 12"), io.Discard, &stderr)
	if code := exitCode(err, &stderr); code != 2 || !errors.Is(err, fleet.ErrConfig) ||
		!strings.Contains(err.Error(), "tau 0.95, tau2 0.9") || strings.Contains(stderr.String(), "observability endpoint") {
		t.Errorf("autoscaled %s: exit status %d, error %v; want 2 and fleet.ErrConfig naming both levels, before the listener:\n%s",
			inverted, code, err, stderr.String())
	}
	// Values the flags themselves refuse, with the usage, instead of a
	// clamp quietly replacing them later.
	for _, args := range []string{"-checkpoint-interval 0", "-checkpoint-interval -1", "-state-retain 0",
		"-journal-cap 0", "-tau NaN", "-tau 1.5", "-tau -0.1", "-tau2 NaN", "-tau2 1"} {
		var stdout, stderr bytes.Buffer
		code := exitCode(run(context.Background(), strings.Fields(args+" -epochs 1"), &stdout, &stderr), &stderr)
		if code != 2 || stdout.Len() > 0 {
			t.Errorf("autoscaled %s: exit status %d, want 2; stdout %q", args, code, stdout.String())
		}
		if !strings.Contains(stderr.String(), "invalid value") || !strings.Contains(stderr.String(), "Usage of autoscaled") {
			t.Errorf("autoscaled %s: stderr lacks the reason or the usage:\n%s", args, stderr.String())
		}
	}
}

// TestUnknownNamesRefusedBeforeListen: a strategy, dataset or chaos
// preset no loop knows exits 2 before -listen binds, the trace is
// generated or chaos is armed, so an operator's typo never opens an
// observability endpoint or starts training.
func TestUnknownNamesRefusedBeforeListen(t *testing.T) {
	for _, args := range []string{"-strategy bogus", "-dataset bogus", "-chaos bogus"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), strings.Fields(args+" -listen 127.0.0.1:0 -epochs 1"), &stdout, &stderr)
		if code := exitCode(err, &stderr); code != 2 || !errors.Is(err, fleet.ErrConfig) {
			t.Errorf("autoscaled %s: exit status %d (error %v), want 2 and fleet.ErrConfig", args, code, err)
		}
		for _, late := range []string{"observability endpoint", "training", "armed"} {
			if strings.Contains(stderr.String(), late) {
				t.Errorf("autoscaled %s got as far as %q before refusing:\n%s", args, late, stderr.String())
			}
		}
		if stdout.Len() > 0 {
			t.Errorf("autoscaled %s wrote to stdout: %q", args, stdout.String())
		}
	}
}
