package cluster

import (
	"math"
	"testing"
	"time"

	"robustscale/internal/timeseries"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func mustNew(t *testing.T, cfg Config, initial int) *Cluster {
	t.Helper()
	c, err := New(cfg, t0, initial)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterDefaults(t *testing.T) {
	c := mustNew(t, DefaultConfig(), 3)
	if c.Size() != 3 || c.ReadyCount() != 3 {
		t.Errorf("size=%d ready=%d", c.Size(), c.ReadyCount())
	}
	// Zero or negative initial coerces to 1.
	c2 := mustNew(t, DefaultConfig(), 0)
	if c2.Size() != 1 {
		t.Errorf("size = %d", c2.Size())
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := New(Config{CheckpointMB: -1, LoadBandwidthMBps: 1}, t0, 1); err == nil {
		t.Error("negative checkpoint should fail")
	}
	if _, err := New(Config{CheckpointMB: 1, LoadBandwidthMBps: 0}, t0, 1); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestWarmupDurationScalesWithCheckpoint(t *testing.T) {
	cfg := Config{CheckpointMB: 1024, LoadBandwidthMBps: 512, BaseWarmup: 2 * time.Second}
	c := mustNew(t, cfg, 1)
	// 1024/512 = 2s load + 2s base = 4s.
	if got := c.WarmupDuration(); got != 4*time.Second {
		t.Errorf("warmup = %v", got)
	}
	// Figure 5 shape: warm-up grows linearly with checkpoint size and
	// stays in the seconds range for realistic sizes.
	prev := time.Duration(0)
	for _, mb := range []float64{512, 1024, 2048, 4096, 8192} {
		cfg.CheckpointMB = mb
		ci := mustNew(t, cfg, 1)
		w := ci.WarmupDuration()
		if w <= prev {
			t.Errorf("warmup not increasing at %vMB", mb)
		}
		if w > time.Minute {
			t.Errorf("warmup %v implausibly large", w)
		}
		prev = w
	}
}

func TestScaleOutWarmsUp(t *testing.T) {
	cfg := Config{CheckpointMB: 1024, LoadBandwidthMBps: 256, BaseWarmup: time.Second} // 5s warmup
	c := mustNew(t, cfg, 1)
	if err := c.ScaleTo(3); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Errorf("size = %d", c.Size())
	}
	if c.ReadyCount() != 1 {
		t.Errorf("ready = %d, new nodes should be warming", c.ReadyCount())
	}
	c.Advance(10 * time.Second)
	if c.ReadyCount() != 3 {
		t.Errorf("ready = %d after warmup", c.ReadyCount())
	}
	if c.ScaleOuts != 2 {
		t.Errorf("scaleOuts = %d", c.ScaleOuts)
	}
}

func TestScaleInImmediate(t *testing.T) {
	c := mustNew(t, DefaultConfig(), 5)
	if err := c.ScaleTo(2); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 || c.ReadyCount() != 2 {
		t.Errorf("size=%d ready=%d", c.Size(), c.ReadyCount())
	}
	if c.ScaleIns != 3 {
		t.Errorf("scaleIns = %d", c.ScaleIns)
	}
}

func TestScaleToValidation(t *testing.T) {
	c := mustNew(t, DefaultConfig(), 1)
	if err := c.ScaleTo(0); err == nil {
		t.Error("scale to 0 should fail")
	}
}

func TestEffectiveCapacityProRatesWarmup(t *testing.T) {
	// Warmup = 5 minutes against a 10-minute step: the new node serves
	// half the interval.
	cfg := Config{CheckpointMB: 300 * 1024, LoadBandwidthMBps: 1024, BaseWarmup: 0} // 300s
	c := mustNew(t, cfg, 1)
	if err := c.ScaleTo(2); err != nil {
		t.Fatal(err)
	}
	capacity := c.EffectiveCapacity(10 * time.Minute)
	if math.Abs(capacity-1.5) > 1e-9 {
		t.Errorf("capacity = %v, want 1.5", capacity)
	}
	// Zero interval falls back to the ready count.
	if got := c.EffectiveCapacity(0); got != 1 {
		t.Errorf("instant capacity = %v", got)
	}
}

func TestReplayPerfectAllocations(t *testing.T) {
	s := timeseries.New("w", t0, timeseries.DefaultStep, []float64{8, 18, 28, 18})
	c := mustNew(t, DefaultConfig(), 1)
	report, err := c.Replay(s, []int{1, 2, 3, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up of seconds is negligible against 10-minute steps, so no
	// violations (the paper's core premise for ignoring scaling
	// overhead).
	if report.Violation != 0 {
		t.Errorf("violations = %d: %+v", report.Violation, report.Steps)
	}
	if report.ScaleOuts != 2 || report.ScaleIns != 1 {
		t.Errorf("scaleOuts=%d scaleIns=%d", report.ScaleOuts, report.ScaleIns)
	}
	if len(report.Steps) != 4 {
		t.Errorf("steps = %d", len(report.Steps))
	}
}

func TestReplayUnderProvisionDetected(t *testing.T) {
	s := timeseries.New("w", t0, timeseries.DefaultStep, []float64{50, 50})
	c := mustNew(t, DefaultConfig(), 1)
	report, err := c.Replay(s, []int{2, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 50 / 2 nodes = 25 > 10: both steps violated.
	if report.Violation != 2 {
		t.Errorf("violations = %d", report.Violation)
	}
	if report.ViolationRate != 1 {
		t.Errorf("rate = %v", report.ViolationRate)
	}
}

func TestReplaySlowWarmupHurts(t *testing.T) {
	// A deliberately slow warm-up (half the step) makes an abrupt
	// scale-out insufficient for its first interval.
	cfg := Config{CheckpointMB: 300 * 1024, LoadBandwidthMBps: 1024, BaseWarmup: 0} // 300s = half step
	s := timeseries.New("w", t0, timeseries.DefaultStep, []float64{10, 40})
	c := mustNew(t, cfg, 1)
	report, err := c.Replay(s, []int{1, 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: 3 new nodes contribute only half the interval: capacity
	// 1 + 3*0.5 = 2.5, utilization 16 > 10.
	if !report.Steps[1].Violated {
		t.Errorf("slow warmup should violate: %+v", report.Steps[1])
	}
}

func TestReplayValidation(t *testing.T) {
	s := timeseries.New("w", t0, timeseries.DefaultStep, []float64{1, 2})
	c := mustNew(t, DefaultConfig(), 1)
	if _, err := c.Replay(s, []int{1}, 10); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := c.Replay(s, []int{1, 1}, 0); err == nil {
		t.Error("zero theta should fail")
	}
	if _, err := c.Replay(s, []int{1, 0}, 10); err == nil {
		t.Error("zero allocation should fail")
	}
}

func TestReplayAdvancesVirtualTime(t *testing.T) {
	s := timeseries.New("w", t0, timeseries.DefaultStep, []float64{1, 1, 1})
	c := mustNew(t, DefaultConfig(), 1)
	if _, err := c.Replay(s, []int{1, 1, 1}, 10); err != nil {
		t.Fatal(err)
	}
	want := t0.Add(3 * timeseries.DefaultStep)
	if !c.Now().Equal(want) {
		t.Errorf("now = %v, want %v", c.Now(), want)
	}
}
