package chaos

import (
	"reflect"
	"sort"
	"testing"
)

// legacySchedule is the schedule the package ran before lookups were
// binary-searched, kept as the reference implementation: events in a map
// by class, each class re-sorted on every Add, and ActiveAt scanning the
// whole class backwards. FuzzScheduleMatchesLegacy holds Schedule to it.
type legacySchedule struct {
	byClass map[Class][]Event
	total   int
}

func (s *legacySchedule) add(e Event) {
	if s.byClass == nil {
		s.byClass = make(map[Class][]Event)
	}
	evs := append(s.byClass[e.Class], e)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Step < evs[j].Step })
	s.byClass[e.Class] = evs
	s.total++
}

func (s *legacySchedule) events() []Event {
	out := make([]Event, 0, s.total)
	for _, evs := range s.byClass {
		out = append(out, evs...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Step != out[j].Step {
			return out[i].Step < out[j].Step
		}
		return out[i].Class < out[j].Class
	})
	return out
}

func (s *legacySchedule) activeAt(step int, class Class) (Event, bool) {
	evs := s.byClass[class]
	for i := len(evs) - 1; i >= 0; i-- {
		from, to := evs[i].Step, evs[i].Step+max(evs[i].Size, 1)
		if from > step {
			continue
		}
		if step < to {
			return evs[i], true
		}
	}
	return Event{}, false
}

func (s *legacySchedule) killsAt(step int) int {
	killed := 0
	for _, e := range s.byClass[NodeKill] {
		if e.Step == step {
			killed += max(e.Size, 1)
		}
	}
	return killed
}

// legacyFaults is the reference's answer to every question the apply
// stage asks at one step, one lookup each, as the loop asked before it
// read a fault window.
func (s *legacySchedule) legacyFaults(step int) StepFaults {
	f := StepFaults{Kills: s.killsAt(step)}
	if e, ok := s.activeAt(step, WakeStall); ok {
		f.StallSeconds = 900
		if e.Value > 0 {
			f.StallSeconds = e.Value
		}
	}
	_, f.WakeFail = s.activeAt(step, WakeFail)
	_, f.PartialProvision = s.activeAt(step, PartialProvision)
	_, f.Reject = s.activeAt(step, ApplyReject)
	var e Event
	e, f.Timeout = s.activeAt(step, ApplyTimeout)
	f.TimeoutSeconds = e.Value
	_, f.Partial = s.activeAt(step, ApplyPartial)
	return f
}

// fuzzClasses are the classes fuzzed events draw from: every class the
// apply stage's fault window carries, and two it skips. Every class in
// Classes is queried, so the absent ones are checked too.
var fuzzClasses = []Class{NodeKill, WakeStall, ApplyReject, ForecastError, PoolCollapse,
	WakeFail, PartialProvision, ApplyTimeout, ApplyPartial}

// FuzzScheduleMatchesLegacy adds events in arbitrary order — several
// classes, steps 0–200, sizes 0–8, overlapping windows and same-step
// duplicates — to a Schedule and to the reference, then requires ActiveAt
// and KillsAt to agree at every step around the schedule for every class,
// and Events and Len to agree outright. A fault window filled at a fuzzed
// step (-20 to 229) over a fuzzed length (0–39 steps) must hold, at every
// step, the reference's answers to each question the apply stage asks,
// and At must return them. Each event carries its Add index as its Value,
// so agreeing on which of two covering events wins is part of the check.
// Three bytes make one event: class, step, size.
func FuzzScheduleMatchesLegacy(f *testing.F) {
	// One window read at its last covered step; a short window inside a
	// long one, the long one starting first; same-step duplicates of every
	// size; a kill pile-up at one step. Then fault windows: one ending
	// before the first event, one starting past the last, one cutting
	// through overlapping stall and timeout windows, one over same-step
	// duplicates of every apply class, a kill just before its start, and
	// windows starting inside the last step of a class's longest event.
	f.Add([]byte{0, 10, 3}, int16(0), uint8(12))
	f.Add([]byte{1, 10, 8, 1, 12, 1, 1, 14, 0}, int16(9), uint8(12))
	f.Add([]byte{2, 7, 2, 2, 7, 5, 2, 7, 0, 2, 3, 4}, int16(6), uint8(3))
	f.Add([]byte{0, 50, 2, 0, 50, 0, 0, 49, 1, 0, 50, 3}, int16(48), uint8(12))
	f.Add([]byte{1, 30, 3, 5, 31, 2, 0, 40, 1}, int16(-20), uint8(40))
	f.Add([]byte{1, 30, 3, 5, 31, 2, 0, 40, 1}, int16(45), uint8(12))
	f.Add([]byte{1, 20, 8, 1, 22, 2, 7, 21, 5, 7, 23, 1, 7, 23, 0}, int16(22), uint8(12))
	f.Add([]byte{5, 60, 3, 6, 60, 3, 2, 60, 3, 7, 60, 1, 8, 60, 2, 5, 60, 0, 8, 61, 4}, int16(59), uint8(5))
	f.Add([]byte{0, 99, 2, 0, 100, 1, 7, 98, 3}, int16(100), uint8(12))
	f.Add([]byte{1, 20, 3, 7, 40, 5, 1, 30, 1}, int16(22), uint8(24))
	f.Fuzz(func(t *testing.T, data []byte, from16 int16, n8 uint8) {
		var s Schedule
		var ref legacySchedule
		last := 0
		for k := 0; k+3 <= len(data); k += 3 {
			e := Event{
				Class: fuzzClasses[int(data[k])%len(fuzzClasses)],
				Step:  int(data[k+1]) % 201,
				Size:  int(data[k+2]) % 9,
				Value: float64(k / 3),
			}
			s.Add(e)
			ref.add(e)
			last = max(last, e.Step+e.Size)
		}
		if s.Len() != ref.total {
			t.Fatalf("Len = %d, reference %d", s.Len(), ref.total)
		}
		if got, want := s.Events(), ref.events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Events differ:\n got %v\nwant %v", got, want)
		}
		for step := -2; step <= last+10; step++ {
			for _, class := range Classes {
				e, ok := s.ActiveAt(step, class)
				we, wok := ref.activeAt(step, class)
				if e != we || ok != wok {
					t.Fatalf("ActiveAt(%d, %s) = %v %v, reference %v %v", step, class, e, ok, we, wok)
				}
			}
			if got, want := s.KillsAt(step), ref.killsAt(step); got != want {
				t.Fatalf("KillsAt(%d) = %d, reference %d", step, got, want)
			}
		}
		from, n := (int(from16)%250+270)%250-20, int(n8)%40
		w := Window{Steps: make([]StepFaults, n)}
		for i := range w.Steps {
			w.Steps[i] = StepFaults{Kills: -1, Reject: true} // Fill must overwrite stale records
		}
		w.Fill(&s, from)
		for i, got := range w.Steps {
			if want := ref.legacyFaults(from + i); got != want {
				t.Fatalf("window from %d, step %d: %+v, reference %+v", from, from+i, got, want)
			}
		}
		for step := from - 2; step < from+n+2; step++ {
			want := StepFaults{}
			if step >= from && step < from+n {
				want = ref.legacyFaults(step)
			}
			if got := w.At(step); got != want {
				t.Fatalf("window from %d: At(%d) = %+v, want %+v", from, step, got, want)
			}
		}
	})
}

// BenchmarkScheduleActiveAt times one lookup on a tenant's schedule under
// the wake-storm preset over a 1 440-step replay, asking at every step for
// the classes a serverless tenant's plant and apply path consult.
func BenchmarkScheduleActiveAt(b *testing.B) {
	const steps = 1440
	p, err := Preset("wake-storm")
	if err != nil {
		b.Fatal(err)
	}
	p.Seed, p.Steps = 42, steps
	fs, err := NewFleetSchedule(p, 4)
	if err != nil {
		b.Fatal(err)
	}
	s, err := fs.TenantSchedule(0, "t00000")
	if err != nil {
		b.Fatal(err)
	}
	classes := []Class{WakeStall, WakeFail, PartialProvision, ApplyReject, ApplyTimeout, ApplyPartial}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.ActiveAt(i/len(classes)%steps, classes[i%len(classes)]); ok {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "active/op")
}
