package cluster

import (
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

// plantReport is what a faulted plant replay did: the share of steps
// over the threshold, the steps whose apply failed and held, and the
// cluster's failure and scale-out counts.
type plantReport struct {
	ViolationRate              float64
	Holds, Failures, ScaleOuts int
}

// replayPlant drives a ClusterPlant over the workload the way a fleet
// tenant's apply stage does: one chaos.Window over the whole span,
// chaos.WrapApply around ScaleTo and no retries, so a failed apply holds
// the previous size.
func replayPlant(t *testing.T, cfg Config, initial int, workload *timeseries.Series, allocs []int, theta float64, sched *chaos.Schedule) (*ClusterPlant, plantReport) {
	t.Helper()
	p := &ClusterPlant{Config: cfg, Theta: theta, StepLen: workload.Step}
	if err := p.Reset(workload.Start, initial); err != nil {
		t.Fatal(err)
	}
	faults := chaos.Window{Steps: make([]chaos.StepFaults, workload.Len())}
	faults.Fill(sched, 0)
	var i int
	apply := chaos.WrapApply(p.ScaleTo, p.Size, func() (int, chaos.StepFaults) { return i, faults.At(i) })
	var rep plantReport
	var r StepResult
	violations := 0
	for i = 0; i < workload.Len(); i++ {
		p.Step(&r, apply, allocs[i], faults.At(i), workload.At(i))
		if r.Err != nil {
			rep.Holds++
		}
		if r.Violated {
			violations++
		}
	}
	rep.ViolationRate = float64(violations) / float64(workload.Len())
	rep.Failures, rep.ScaleOuts = p.Failures, p.ScaleOuts
	return p, rep
}

// TestClusterPlantSeededKillStream pins seeded node-kill replay: the
// stream must inject faults, and two identical schedule replays must
// report identically.
func TestClusterPlantSeededKillStream(t *testing.T) {
	s, allocs := steadySeries(50, 20)
	_, ra := replayPlant(t, DefaultConfig(), 3, s, allocs, 10, seededNodeKills(0.2, 9, s.Len()))
	if ra.Failures == 0 {
		t.Error("seeded 20% failure rate injected nothing over 50 steps")
	}
	// Rebuilding the schedule from the same knobs replays identically.
	_, rb := replayPlant(t, DefaultConfig(), 3, s, allocs, 10, seededNodeKills(0.2, 9, s.Len()))
	if ra != rb {
		t.Errorf("seeded schedule replay not deterministic: %+v vs %+v", ra, rb)
	}
}

func TestClusterPlantKillsAndHolds(t *testing.T) {
	s, allocs := steadySeries(10, 20)
	sched := &chaos.Schedule{}
	sched.Add(chaos.Event{Step: 2, Class: chaos.NodeKill, Size: 2})
	// Rejection window covering the replacement scale-out: the fleet
	// holds its post-kill size through steps 3 and 4.
	sched.Add(chaos.Event{Step: 3, Class: chaos.ApplyReject, Size: 2})

	p, report := replayPlant(t, DefaultConfig(), 3, s, allocs, 100, sched)
	if report.Failures != 2 {
		t.Errorf("failures = %d, want 2", report.Failures)
	}
	if report.Holds != 2 {
		t.Errorf("holds = %d, want 2", report.Holds)
	}
	// Step 2 replaced the kills immediately (kills strike before the
	// scale action), so the rejected steps held an already-restored fleet.
	if p.Size() != 3 {
		t.Errorf("final size = %d, want 3", p.Size())
	}
}

func TestClusterPlantPartialConverges(t *testing.T) {
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

	p, report := replayPlant(t, DefaultConfig(), 1, s, allocs, 100, sched)
	if report.Holds != 3 {
		t.Errorf("holds = %d, want 3 partial steps", report.Holds)
	}
	if p.Size() != 4 {
		t.Errorf("fleet should converge to 4 after the window, got %d", p.Size())
	}
}

func TestClusterPlantEmptyScheduleMatchesReplay(t *testing.T) {
	s, allocs := steadySeries(20, 25)
	a := mustNew(t, DefaultConfig(), 3)
	ra, err := a.Replay(s, allocs, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, rb := replayPlant(t, DefaultConfig(), 3, s, allocs, 10, &chaos.Schedule{})
	if ra.ViolationRate != rb.ViolationRate || ra.ScaleOuts != rb.ScaleOuts || rb.Holds != 0 {
		t.Errorf("empty schedule diverged: %+v vs %+v", ra, rb)
	}
}

func TestClusterPlantInjectsAndRecovers(t *testing.T) {
	// A long steady workload at 3 nodes: injected failures get replaced
	// at the next step, so only brief capacity dips occur.
	s, allocs := steadySeries(200, 25)
	_, report := replayPlant(t, DefaultConfig(), 3, s, allocs, 10, seededNodeKills(0.1, 5, s.Len()))
	if report.Failures == 0 {
		t.Fatal("no failures injected at 10% per step over 200 steps")
	}
	// Every failure forces a replacement scale-out.
	if report.ScaleOuts < report.Failures {
		t.Errorf("scaleOuts %d < failures %d", report.ScaleOuts, report.Failures)
	}
	// With seconds-scale warm-up, recovery is fast enough that most steps
	// stay under threshold (25/3 = 8.3 < 10 leaves ~20% headroom).
	if report.ViolationRate > 0.1 {
		t.Errorf("violation rate = %v", report.ViolationRate)
	}
}

func TestClusterPlantTightPlansSuffer(t *testing.T) {
	// Allocations sized exactly to the threshold: any failure step runs
	// the cluster hot until the replacement warms up.
	s, allocs := steadySeries(200, 29.5) // 29.5/3 = 9.83, just under theta=10

	// A deliberately slow warm-up (half the step) so a failed node's
	// replacement cannot absorb load immediately.
	slow := Config{CheckpointMB: 300 * 1024, LoadBandwidthMBps: 1024}
	clean := mustNew(t, slow, 3)
	cleanReport, err := clean.Replay(s, allocs, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, faultyReport := replayPlant(t, slow, 3, s, allocs, 10, seededNodeKills(0.2, 6, s.Len()))
	if faultyReport.ViolationRate <= cleanReport.ViolationRate {
		t.Errorf("faults should raise violations: %v vs %v",
			faultyReport.ViolationRate, cleanReport.ViolationRate)
	}
}

func TestClusterPlantDeterministic(t *testing.T) {
	s, allocs := steadySeries(50, 20)
	run := func() int {
		_, r := replayPlant(t, DefaultConfig(), 3, s, allocs, 10, seededNodeKills(0.2, 9, s.Len()))
		return r.Failures
	}
	if run() != run() {
		t.Error("same seed should inject identically")
	}
}
