package cluster

import (
	"testing"
	"time"

	"robustscale/internal/timeseries"
)

func TestKillRemovesNodesButKeepsOne(t *testing.T) {
	c := mustNew(t, DefaultConfig(), 4)
	if got := c.Kill(2); got != 2 {
		t.Errorf("killed = %d", got)
	}
	if c.Size() != 2 {
		t.Errorf("size = %d", c.Size())
	}
	// Killing more than available leaves the last node standing.
	if got := c.Kill(10); got != 1 {
		t.Errorf("killed = %d", got)
	}
	if c.Size() != 1 {
		t.Errorf("size = %d", c.Size())
	}
	if c.Failures != 3 {
		t.Errorf("failures = %d", c.Failures)
	}
}

func TestKillThenScaleToReplacesWithWarmup(t *testing.T) {
	cfg := Config{CheckpointMB: 1024, LoadBandwidthMBps: 256, BaseWarmup: time.Second} // 5s warmup
	c := mustNew(t, cfg, 3)
	c.Kill(2)
	if err := c.ScaleTo(3); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Errorf("size = %d", c.Size())
	}
	// Replacements are warming.
	if c.ReadyCount() != 1 {
		t.Errorf("ready = %d", c.ReadyCount())
	}
	c.Advance(10 * time.Second)
	if c.ReadyCount() != 3 {
		t.Errorf("ready after warmup = %d", c.ReadyCount())
	}
}

func TestReplayWithScheduleInjectsAndRecovers(t *testing.T) {
	// A long steady workload at 3 nodes: injected failures get replaced
	// at the next step, so only brief capacity dips occur.
	n := 200
	vals := make([]float64, n)
	allocs := make([]int, n)
	for i := range vals {
		vals[i] = 25
		allocs[i] = 3
	}
	s := timeseries.New("w", t0, timeseries.DefaultStep, vals)
	c := mustNew(t, DefaultConfig(), 3)
	report, err := c.ReplayWithSchedule(s, allocs, 10, seededNodeKills(0.1, 5, n))
	if err != nil {
		t.Fatal(err)
	}
	if report.Failures == 0 {
		t.Fatal("no failures injected at 10% per step over 200 steps")
	}
	// Every failure forces a replacement scale-out.
	if report.ScaleOuts < report.Failures {
		t.Errorf("scaleOuts %d < failures %d", report.ScaleOuts, report.Failures)
	}
	// With seconds-scale warm-up, recovery is fast enough that most steps
	// stay under threshold (25/3 = 8.3 < 10 leaves ~20%% headroom).
	if report.ViolationRate > 0.1 {
		t.Errorf("violation rate = %v", report.ViolationRate)
	}
}

func TestReplayWithScheduleTightPlansSuffer(t *testing.T) {
	// Same workload, but allocations sized exactly to the threshold: any
	// failure step runs the cluster hot until the replacement warms up.
	n := 200
	vals := make([]float64, n)
	allocs := make([]int, n)
	for i := range vals {
		vals[i] = 29.5 // 29.5/3 = 9.83, just under theta=10
		allocs[i] = 3
	}
	s := timeseries.New("w", t0, timeseries.DefaultStep, vals)

	// A deliberately slow warm-up (half the step) so a failed node's
	// replacement cannot absorb load immediately.
	slow := Config{CheckpointMB: 300 * 1024, LoadBandwidthMBps: 1024}
	clean := mustNew(t, slow, 3)
	cleanReport, err := clean.Replay(s, allocs, 10)
	if err != nil {
		t.Fatal(err)
	}
	faulty := mustNew(t, slow, 3)
	faultyReport, err := faulty.ReplayWithSchedule(s, allocs, 10, seededNodeKills(0.2, 6, n))
	if err != nil {
		t.Fatal(err)
	}
	if faultyReport.ViolationRate <= cleanReport.ViolationRate {
		t.Errorf("faults should raise violations: %v vs %v",
			faultyReport.ViolationRate, cleanReport.ViolationRate)
	}
}

func TestReplayWithScheduleDeterministic(t *testing.T) {
	n := 50
	vals := make([]float64, n)
	allocs := make([]int, n)
	for i := range vals {
		vals[i] = 20
		allocs[i] = 3
	}
	s := timeseries.New("w", t0, timeseries.DefaultStep, vals)
	run := func() int {
		c := mustNew(t, DefaultConfig(), 3)
		r, err := c.ReplayWithSchedule(s, allocs, 10, seededNodeKills(0.2, 9, n))
		if err != nil {
			t.Fatal(err)
		}
		return r.Failures
	}
	if run() != run() {
		t.Error("same seed should inject identically")
	}
}
