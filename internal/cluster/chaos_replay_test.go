package cluster

import (
	"math"
	"math/rand"
	"testing"

	"robustscale/internal/chaos"
	"robustscale/internal/timeseries"
)

func steadySeries(n int, v float64) (*timeseries.Series, []int) {
	vals := make([]float64, n)
	allocs := make([]int, n)
	for i := range vals {
		vals[i] = v
		allocs[i] = 3
	}
	return timeseries.New("w", t0, timeseries.DefaultStep, vals), allocs
}

// seededNodeKills is a seeded node-kill stream: one uniform draw per step
// against prob, killing one node on a hit.
func seededNodeKills(prob float64, seed int64, steps int) *chaos.Schedule {
	sched := &chaos.Schedule{}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		if rng.Float64() < prob {
			sched.Add(chaos.Event{Step: step, Class: chaos.NodeKill, Size: 1})
		}
	}
	return sched
}

// TestReplayWithScheduleLegacyFaultStream pins seeded node-kill replay:
// the stream must inject faults, and two identical schedule replays must
// report identically.
func TestReplayWithScheduleLegacyFaultStream(t *testing.T) {
	s, allocs := steadySeries(50, 20)

	sched := seededNodeKills(0.2, 9, s.Len())
	a := mustNew(t, DefaultConfig(), 3)
	ra, err := a.ReplayWithSchedule(s, allocs, 10, sched)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Failures == 0 {
		t.Error("seeded 20% failure rate injected nothing over 50 steps")
	}

	// Rebuilding the schedule from the same knobs replays identically.
	b := mustNew(t, DefaultConfig(), 3)
	rb, err := b.ReplayWithSchedule(s, allocs, 10, seededNodeKills(0.2, 9, s.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Failures != rb.Failures || ra.ViolationRate != rb.ViolationRate || ra.ScaleOuts != rb.ScaleOuts {
		t.Errorf("seeded schedule replay not deterministic: %+v vs %+v", ra, rb)
	}
}

func TestReplayWithScheduleKillsAndHolds(t *testing.T) {
	s, allocs := steadySeries(10, 20)
	sched := &chaos.Schedule{}
	sched.Add(chaos.Event{Step: 2, Class: chaos.NodeKill, Size: 2})
	// Rejection window covering the replacement scale-out: the fleet
	// holds its post-kill size through steps 3 and 4.
	sched.Add(chaos.Event{Step: 3, Class: chaos.ApplyReject, Size: 2})

	c := mustNew(t, DefaultConfig(), 3)
	report, err := c.ReplayWithSchedule(s, allocs, 100, sched)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failures != 2 {
		t.Errorf("failures = %d, want 2", report.Failures)
	}
	if report.Holds != 2 {
		t.Errorf("holds = %d, want 2", report.Holds)
	}
	// Step 2 replaced the kills immediately (kills strike before the
	// scale action), so the rejected steps held an already-restored fleet.
	if c.Size() != 3 {
		t.Errorf("final size = %d, want 3", c.Size())
	}
}

func TestReplayWithSchedulePartialConverges(t *testing.T) {
	// One partial-fulfilment window over a scale-out from 1 to 4: each
	// step moves halfway, so the fleet converges without ever erroring
	// the replay out.
	n := 6
	vals := make([]float64, n)
	allocs := make([]int, n)
	for i := range vals {
		vals[i] = 5
		allocs[i] = 4
	}
	s := timeseries.New("w", t0, timeseries.DefaultStep, vals)
	sched := &chaos.Schedule{}
	sched.Add(chaos.Event{Step: 0, Class: chaos.ApplyPartial, Size: 3})

	c := mustNew(t, DefaultConfig(), 1)
	report, err := c.ReplayWithSchedule(s, allocs, 100, sched)
	if err != nil {
		t.Fatal(err)
	}
	if report.Holds != 3 {
		t.Errorf("holds = %d, want 3 partial steps", report.Holds)
	}
	if c.Size() != 4 {
		t.Errorf("fleet should converge to 4 after the window, got %d", c.Size())
	}
}

func TestReplayNilScheduleMatchesReplay(t *testing.T) {
	s, allocs := steadySeries(20, 25)
	a := mustNew(t, DefaultConfig(), 3)
	b := mustNew(t, DefaultConfig(), 3)
	ra, err := a.Replay(s, allocs, 10)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.ReplayWithSchedule(s, allocs, 10, &chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.ViolationRate != rb.ViolationRate || ra.ScaleOuts != rb.ScaleOuts || rb.Holds != 0 {
		t.Errorf("empty schedule diverged: %+v vs %+v", ra, rb)
	}
}

func TestCalibrationSkipsNonFinite(t *testing.T) {
	c, err := NewCalibration([]float64{0.5, 0.9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(10, []float64{12, 20}); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(math.NaN(), []float64{12, 20}); err != nil {
		t.Fatalf("NaN actual should skip, not error: %v", err)
	}
	if err := c.Observe(10, []float64{math.Inf(1), 20}); err != nil {
		t.Fatalf("Inf quantile should skip, not error: %v", err)
	}
	snap := c.Snapshot()
	if snap.Steps != 1 {
		t.Errorf("window steps = %d, want 1 (bad rows skipped)", snap.Steps)
	}
	if snap.Skipped != 2 {
		t.Errorf("skipped = %d, want 2", snap.Skipped)
	}
	if math.IsNaN(snap.WQL) || math.IsNaN(snap.Coverage[0]) {
		t.Errorf("rolling stats poisoned: %+v", snap)
	}
}
