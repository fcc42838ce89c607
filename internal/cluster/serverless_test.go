package cluster

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func testServerlessConfig() ServerlessConfig {
	return ServerlessConfig{
		WakeSeconds: 30,
		StepSeconds: 600,
		WakeCost:    2,
	}
}

func mustServerless(t *testing.T, cfg ServerlessConfig) *Serverless {
	t.Helper()
	s, err := NewServerless(cfg)
	if err != nil {
		t.Fatalf("NewServerless: %v", err)
	}
	return s
}

func TestServerlessParkAndWake(t *testing.T) {
	s := mustServerless(t, testServerlessConfig())
	if !s.Parked() {
		t.Fatal("plant must start parked")
	}

	// Idle demand keeps it parked without counting a park transition.
	out := s.Step(0, WakeFault{})
	if !out.Parked || s.Parks() != 0 {
		t.Fatalf("idle step while parked: %+v, parks=%d", out, s.Parks())
	}

	// Demand arrives: fault-free wake completes within the first step
	// (30s against a 600s step), serving 1 - 30/600 of the step.
	out = s.Step(3, WakeFault{})
	if !out.WakeStarted || !out.WakeCompleted {
		t.Fatalf("fault-free wake did not start+complete in one step: %+v", out)
	}
	if out.WakeLatencySeconds != 30 {
		t.Errorf("wake latency = %v, want 30", out.WakeLatencySeconds)
	}
	// Demand 3 on the default ladder: 1 large (cap 4, cost 5) beats
	// 2 medium (cost 6) and 3 small (cost 6).
	if out.Nodes != 1 || out.Size != 2 {
		t.Errorf("sized wake = %d x size %d, want 1 x size 2", out.Nodes, out.Size)
	}
	wantCap := 4 * (1 - 30.0/600.0)
	if math.Abs(out.CapacityUnits-wantCap) > 1e-12 {
		t.Errorf("capacity = %v, want %v", out.CapacityUnits, wantCap)
	}
	if out.CostUnits != 5+2 {
		t.Errorf("wake-step cost = %v, want node cost 5 + wake cost 2", out.CostUnits)
	}

	// Steady state: full capacity, no wake penalty.
	out = s.Step(3, WakeFault{})
	if out.CapacityUnits != 4 || out.CostUnits != 5 {
		t.Errorf("steady step: capacity %v cost %v, want 4 and 5", out.CapacityUnits, out.CostUnits)
	}

	// Demand vanishes: park.
	out = s.Step(0, WakeFault{})
	if !out.Parked || !s.Parked() || s.Parks() != 1 {
		t.Fatalf("park transition: %+v, parks=%d", out, s.Parks())
	}
	if s.Wakes() != 1 {
		t.Errorf("wakes = %d, want 1", s.Wakes())
	}
}

func TestServerlessWakeFailRetries(t *testing.T) {
	s := mustServerless(t, testServerlessConfig())

	out := s.Step(2, WakeFault{Fail: true})
	if !out.WakeStarted || !out.WakeFailed || out.WakeCompleted {
		t.Fatalf("failed wake step: %+v", out)
	}
	if out.CapacityUnits != 0 {
		t.Errorf("failed wake served capacity %v", out.CapacityUnits)
	}
	if s.Parked() {
		t.Fatal("a failing wake is still in flight, not parked")
	}

	// Retry succeeds next step; the lost step counts toward latency.
	out = s.Step(2, WakeFault{})
	if !out.WakeCompleted || out.WakeStarted {
		t.Fatalf("retry step: %+v", out)
	}
	if out.WakeLatencySeconds != 600+30 {
		t.Errorf("latency after one failed attempt = %v, want 630", out.WakeLatencySeconds)
	}
	if s.WakeFails() != 1 || s.Wakes() != 1 {
		t.Errorf("fails=%d wakes=%d, want 1 and 1", s.WakeFails(), s.Wakes())
	}
}

func TestServerlessWakeStall(t *testing.T) {
	s := mustServerless(t, testServerlessConfig())

	// A 900s stall pushes the 30s wake past the 600s step boundary.
	out := s.Step(2, WakeFault{StallSeconds: 900})
	if !out.Stalled || out.WakeCompleted || out.CapacityUnits != 0 {
		t.Fatalf("stalled step: %+v", out)
	}
	out = s.Step(2, WakeFault{})
	if !out.WakeCompleted {
		t.Fatalf("post-stall step: %+v", out)
	}
	// 600s burned + (930-600)=330s remaining resolved this step.
	if out.WakeLatencySeconds != 930 {
		t.Errorf("stalled wake latency = %v, want 930", out.WakeLatencySeconds)
	}
	wantCap := 2 * (1 - 330.0/600.0) // demand 2 -> 1 medium node (cap 2)
	if math.Abs(out.CapacityUnits-wantCap) > 1e-12 {
		t.Errorf("post-stall capacity = %v, want %v", out.CapacityUnits, wantCap)
	}
}

func TestServerlessPartialProvision(t *testing.T) {
	s := mustServerless(t, testServerlessConfig())

	// Demand 8 wants 2 large nodes; partial provisioning grants 1.
	out := s.Step(8, WakeFault{Partial: true})
	if !out.WakeCompleted || !out.PartialApplied {
		t.Fatalf("partial wake: %+v", out)
	}
	if out.Nodes != 1 || out.Size != 2 {
		t.Errorf("partial wake granted %d x size %d, want 1 x size 2", out.Nodes, out.Size)
	}

	// Next fault-free step completes the fleet.
	out = s.Step(8, WakeFault{})
	if out.Nodes != 2 || out.PartialApplied {
		t.Fatalf("recovery step: %+v", out)
	}

	// Partial on an active scale-up halves the increment target too.
	out = s.Step(20, WakeFault{Partial: true}) // wants 5 large
	if !out.PartialApplied || out.Nodes != 3 {
		t.Fatalf("partial scale-up: %+v, want 3 nodes", out)
	}
	// Scale-down is never partially applied: releasing is reliable.
	out = s.Step(4, WakeFault{Partial: true})
	if out.PartialApplied || out.Nodes != 1 {
		t.Fatalf("scale-down with partial flag: %+v", out)
	}
	if s.partials != 2 {
		t.Errorf("partials = %d, want 2", s.partials)
	}
}

func TestServerlessParkAbortsWake(t *testing.T) {
	s := mustServerless(t, testServerlessConfig())
	s.Step(2, WakeFault{StallSeconds: 3000}) // wake pinned in flight
	if !s.waking {
		t.Fatal("wake should be in flight")
	}
	out := s.Step(0, WakeFault{})
	if !out.Parked || !s.Parked() {
		t.Fatalf("park during wake: %+v", out)
	}
	if s.Parks() != 1 {
		t.Errorf("aborted wake should count one park, got %d", s.Parks())
	}
}

// TestServerlessSaveLoadMidWake pins the kill-restart contract: a plant
// snapshotted mid-wake and restored into a fresh instance replays the
// remaining steps bit-identically with the original.
func TestServerlessSaveLoadMidWake(t *testing.T) {
	cfg := testServerlessConfig()
	a := mustServerless(t, cfg)

	script := []struct {
		demand int
		fault  WakeFault
	}{
		{3, WakeFault{}}, {3, WakeFault{}}, {0, WakeFault{}},
		{5, WakeFault{StallSeconds: 900}}, // wake left in flight here
	}
	for _, st := range script {
		a.Step(st.demand, st.fault)
	}
	if !a.waking {
		t.Fatal("scenario should leave a wake in flight")
	}

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	b := mustServerless(t, cfg)
	if err := b.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load: %v", err)
	}

	rest := []struct {
		demand int
		fault  WakeFault
	}{
		{5, WakeFault{Fail: true}}, {5, WakeFault{}}, {5, WakeFault{Partial: true}},
		{0, WakeFault{}}, {1, WakeFault{}},
	}
	for i, st := range rest {
		oa := a.Step(st.demand, st.fault)
		ob := b.Step(st.demand, st.fault)
		if oa != ob {
			t.Fatalf("step %d diverged after restore:\n  orig    %+v\n  restored %+v", i, oa, ob)
		}
	}
	if a.Wakes() != b.Wakes() || a.WakeFails() != b.WakeFails() || a.Parks() != b.Parks() || a.partials != b.partials {
		t.Error("lifetime counters diverged after restore")
	}
}

func TestServerlessLoadRejectsCorruptSnapshot(t *testing.T) {
	cfg := testServerlessConfig()
	var buf bytes.Buffer
	a := mustServerless(t, cfg)
	a.size = 7 // out of ladder range
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := mustServerless(t, cfg)
	if err := b.Load(&buf); err == nil {
		t.Fatal("Load accepted an out-of-range size index")
	}
}

func TestServerlessConfigValidation(t *testing.T) {
	bad := []ServerlessConfig{
		{WakeSeconds: -1, StepSeconds: 600},
		{WakeSeconds: 30, StepSeconds: 0},
		{WakeSeconds: 30, StepSeconds: 600, WakeCost: -5},
	}
	for i, cfg := range bad {
		if _, err := NewServerless(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestScaleToRejectsNegativeTarget is the regression test for the typed
// negative-target error: callers can distinguish the caller-bug case from
// ordinary capacity limits with errors.Is.
func TestScaleToRejectsNegativeTarget(t *testing.T) {
	c, err := New(DefaultConfig(), t0, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = c.ScaleTo(-3)
	if err == nil {
		t.Fatal("ScaleTo(-3) succeeded")
	}
	if !errors.Is(err, ErrNegativeTarget) {
		t.Errorf("ScaleTo(-3) error %v is not ErrNegativeTarget", err)
	}
	// Zero is invalid for the always-on cluster but is not the negative
	// caller-bug class.
	if err := c.ScaleTo(0); errors.Is(err, ErrNegativeTarget) {
		t.Errorf("ScaleTo(0) wrongly classified as negative target: %v", err)
	}
	if c.Size() != 2 {
		t.Errorf("failed ScaleTo mutated the cluster to %d nodes", c.Size())
	}
}

// TestCalibrationAllZeroSeries pins the parked-interval contract: a tenant
// scaled to zero feeds actual=0 with all-zero quantile rows for the whole
// idle stretch. That must not produce NaN wQL and must count 0 >= 0 as
// covered.
func TestCalibrationAllZeroSeries(t *testing.T) {
	cal, err := NewCalibration([]float64{0.5, 0.9}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := cal.Observe(0, []float64{0, 0}); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	snap := cal.Snapshot()
	if math.IsNaN(snap.WQL) || math.IsInf(snap.WQL, 0) {
		t.Fatalf("all-zero window produced wQL %v", snap.WQL)
	}
	if snap.WQL != 0 {
		t.Errorf("all-zero window wQL = %v, want 0", snap.WQL)
	}
	for i, cov := range snap.Coverage {
		if cov != 1 {
			t.Errorf("level %v coverage = %v, want 1 (0 >= 0 is covered)", snap.Levels[i], cov)
		}
	}
	if snap.Skipped != 0 {
		t.Errorf("zero observations wrongly skipped: %d", snap.Skipped)
	}

}
