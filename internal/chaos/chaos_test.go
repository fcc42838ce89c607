package chaos

import (
	"reflect"
	"runtime"
	"testing"
)

func TestProfileBuildDeterministic(t *testing.T) {
	p, err := Preset("all")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed, p.Steps = 7, 500
	a, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Error("same profile should build the same schedule")
	}
	if a.Empty() {
		t.Error("all-class profile over 500 steps should schedule events")
	}
}

func TestProfileOnlyIsRestriction(t *testing.T) {
	// A single-class schedule must place its events at exactly the steps
	// the all-class schedule placed that class at: class streams are
	// independent.
	p, err := Preset("all")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed, p.Steps = 11, 400
	full, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Rates = map[Class]float64{NodeKill: p.Rates[NodeKill]}
	only, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	var fullKills, onlyKills []Event
	for _, e := range full.Events() {
		if e.Class == NodeKill {
			fullKills = append(fullKills, e)
		}
	}
	onlyKills = only.Events()
	if !reflect.DeepEqual(fullKills, onlyKills) {
		t.Errorf("single-class restriction differs: %v vs %v", fullKills, onlyKills)
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []Profile{
		{Steps: -1},
		{Seed: 1, Rates: map[Class]float64{ForecastNaN: 1.5}},
		{Seed: 1, Rates: map[Class]float64{Class("bogus"): 0.1}},
		// Positive rates without a seed: non-reproducible, rejected.
		{Rates: map[Class]float64{NodeKill: 0.1}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	ok := Profile{Seed: 3, Steps: 10, Rates: map[Class]float64{NodeKill: 0.5}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestActiveAtWindows(t *testing.T) {
	s := &Schedule{}
	s.Add(Event{Step: 10, Class: TelemetryDropout, Size: 3})
	for step, want := range map[int]bool{9: false, 10: true, 11: true, 12: true, 13: false} {
		if _, got := s.ActiveAt(step, TelemetryDropout); got != want {
			t.Errorf("step %d: active = %v, want %v", step, got, want)
		}
	}
	// Zero-size events cover exactly one step.
	s.Add(Event{Step: 20, Class: ApplyReject})
	if _, ok := s.ActiveAt(20, ApplyReject); !ok {
		t.Error("size-0 event should cover its own step")
	}
	if _, ok := s.ActiveAt(21, ApplyReject); ok {
		t.Error("size-0 event should not extend past its step")
	}
	// Nil schedules are empty.
	var nilSched *Schedule
	if _, ok := nilSched.ActiveAt(0, NodeKill); ok {
		t.Error("nil schedule should report no events")
	}
	if killsAt(nilSched, 0) != 0 || !nilSched.Empty() {
		t.Error("nil schedule should be empty")
	}
}

func TestKillsAtSumsEvents(t *testing.T) {
	s := &Schedule{}
	s.Add(Event{Step: 5, Class: NodeKill, Size: 2})
	s.Add(Event{Step: 5, Class: NodeKill}) // size 0 -> 1
	s.Add(Event{Step: 6, Class: NodeKill, Size: 1})
	if got := killsAt(s, 5); got != 3 {
		t.Errorf("kills at 5 = %d, want 3", got)
	}
	if got := killsAt(s, 7); got != 0 {
		t.Errorf("kills at 7 = %d, want 0", got)
	}
}

func TestPresetNames(t *testing.T) {
	for _, name := range []string{"none", "forecast", "telemetry", "apply", "node-kill", "all", "smoke"} {
		p, err := Preset(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("%s: name = %q", name, p.Name)
		}
	}
	if _, err := Preset("hurricane"); err == nil {
		t.Error("unknown preset should error")
	}
}

// killsAt is how many nodes the schedule kills at exactly this step, read
// from a one-step Window as the apply stage reads it.
func killsAt(s *Schedule, step int) int {
	w := Window{Steps: make([]StepFaults, 1)}
	w.Fill(s, step)
	return w.Steps[0].Kills
}

// raceDetector reports a -race build (see race_test.go).
var raceDetector bool

// TestBuildAllocs holds a warm wake-storm Build to 13 allocations, the
// schedule and its events: the generator comes from a pool, not from a
// rand.NewSource per build. One P keeps the goroutine on the Pool shard
// it put the generator in.
func TestBuildAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := Preset("wake-storm")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed, p.Steps = 42, 2*288
	if n := testing.AllocsPerRun(20, func() { _, _ = p.Build() }); n > 13 {
		t.Errorf("a wake-storm Build made %v allocations, want at most 13", n)
	}
}
