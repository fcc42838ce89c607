package chaos

import "testing"

func TestWakePresets(t *testing.T) {
	for _, name := range []string{"wake", "wake-storm"} {
		p, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		p.Seed = 7
		p.Steps = 400
		sched, err := p.Build()
		if err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		if sched.Empty() {
			t.Fatalf("%s schedule empty over 400 steps", name)
		}
	}
}

func TestWakeAccessors(t *testing.T) {
	sched := &Schedule{}
	sched.Add(Event{Step: 10, Class: WakeStall, Size: 3, Value: 1200})
	sched.Add(Event{Step: 20, Class: WakeFail, Size: 2})
	sched.Add(Event{Step: 30, Class: PartialProvision, Size: 1})

	if got := sched.WakeStallAt(11); got != 1200 {
		t.Errorf("WakeStallAt(11) = %v, want 1200", got)
	}
	if got := sched.WakeStallAt(13); got != 0 {
		t.Errorf("WakeStallAt(13) = %v, want 0 (window closed)", got)
	}
	if !sched.WakeFailAt(21) || sched.WakeFailAt(22) {
		t.Error("WakeFailAt window wrong")
	}
	if !sched.PartialProvisionAt(30) || sched.PartialProvisionAt(31) {
		t.Error("PartialProvisionAt window wrong")
	}
	// Zero-value stall events fall back to the default magnitude.
	sched.Add(Event{Step: 40, Class: WakeStall, Size: 1})
	if got := sched.WakeStallAt(40); got != 900 {
		t.Errorf("default WakeStallAt = %v, want 900", got)
	}
}

func TestWakeStormIsFleetLevel(t *testing.T) {
	p, err := Preset("wake-storm")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 11
	p.Steps = 600
	fs, err := NewFleetSchedule(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	storm := 0
	for step := 0; step < p.Steps; step++ {
		if fs.WakeStormAt(step) {
			storm++
		}
	}
	if storm == 0 {
		t.Fatal("wake-storm preset scheduled no storm windows over 600 steps")
	}
	// Tenant-local schedules must not carry the fleet-level class, but do
	// carry the local wake classes.
	sched, err := fs.TenantSchedule(0, "t00000")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sched.Events() {
		if e.Class == WakeStorm {
			t.Fatal("WakeStorm leaked into a tenant-local schedule")
		}
	}
}

// TestWakeClassRestriction pins the stream-independence contract for the
// new classes: a single-class profile is the exact restriction of the
// combined profile, so enabling wake faults never moves another class's
// events.
func TestWakeClassRestriction(t *testing.T) {
	full := Profile{Name: "both", Seed: 99, Steps: 500, Rates: map[Class]float64{
		WakeFail: 0.1, NodeKill: 0.05,
	}}
	fullSched, err := full.Build()
	if err != nil {
		t.Fatal(err)
	}
	restricted := full
	restricted.Rates = map[Class]float64{WakeFail: full.Rates[WakeFail]}
	only, err := restricted.Build()
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < full.Steps; step++ {
		if fullSched.WakeFailAt(step) != only.WakeFailAt(step) {
			t.Fatalf("WakeFail stream differs at step %d when NodeKill enabled", step)
		}
	}
}
