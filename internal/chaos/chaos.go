// Package chaos is a deterministic fault-injection harness for the
// auto-scaling control loop. It models the failure classes a production
// autoscaler meets at each boundary of the loop — the forecaster (errors,
// NaN/Inf fans, quantile crossing, unbounded blow-ups, latency), the
// telemetry pipeline (frozen sensors, dropout windows, duplicated
// samples), the control plane (rejected, partially fulfilled, or timed-out
// scaling actions), and the infrastructure itself (node kills) — as a
// seeded, precomputed Schedule over virtual-time replay steps.
//
// Everything is deterministic: a Profile expands to the same Schedule for
// the same seed, and injectors consult the schedule by step, so chaos runs
// are exactly reproducible and comparable against their fault-free twins.
// The package never touches wall-clock time.
package chaos

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"robustscale/internal/obs"
)

// Class identifies one fault class of the taxonomy.
type Class string

// The fault taxonomy, grouped by the control-loop boundary it strikes.
const (
	// ForecastError makes the forecaster return an error.
	ForecastError Class = "forecast-error"
	// ForecastNaN poisons fan entries with NaN/Inf values.
	ForecastNaN Class = "forecast-nan"
	// ForecastCrossing reverses quantile rows so levels cross.
	ForecastCrossing Class = "forecast-crossing"
	// ForecastBlowup multiplies the fan by an unbounded factor.
	ForecastBlowup Class = "forecast-blowup"
	// ForecastLatency delays the forecast by Event.Value seconds.
	ForecastLatency Class = "forecast-latency"

	// TelemetryStale freezes the observed history tail at one value.
	TelemetryStale Class = "telemetry-stale"
	// TelemetryDropout replaces a window of observations with NaN.
	TelemetryDropout Class = "telemetry-dropout"
	// TelemetryDuplicate double-counts a window of observations.
	TelemetryDuplicate Class = "telemetry-duplicate"

	// ApplyReject makes the control plane refuse the scaling action.
	ApplyReject Class = "apply-reject"
	// ApplyPartial fulfils only part of the requested node delta.
	ApplyPartial Class = "apply-partial"
	// ApplyTimeout times the scaling action out with no effect.
	ApplyTimeout Class = "apply-timeout"

	// NodeKill abruptly removes Event.Size nodes.
	NodeKill Class = "node-kill"

	// The serverless wake taxonomy: faults striking the zero->nonzero
	// transition, where a parked tenant has no capacity to degrade onto.

	// WakeStall stretches an in-flight wake-from-zero by Event.Value
	// extra seconds (cold-start pathology: image pull, slow checkpoint
	// restore, placement retry).
	WakeStall Class = "wake-stall"
	// WakeFail makes a wake-from-zero attempt fail outright for the
	// window; the tenant stays at zero capacity and must retry.
	WakeFail Class = "wake-fail"
	// PartialProvision grants only half of a requested resize or wake
	// fleet for the window (capacity arrives, but not all of it).
	PartialProvision Class = "partial-provision"
)

// Classes lists every fault class in taxonomy order.
var Classes = []Class{
	ForecastError, ForecastNaN, ForecastCrossing, ForecastBlowup, ForecastLatency,
	TelemetryStale, TelemetryDropout, TelemetryDuplicate,
	ApplyReject, ApplyPartial, ApplyTimeout,
	NodeKill,
	ZoneOutage, PoolCollapse, AdmissionReject,
	WakeStall, WakeFail, PartialProvision, WakeStorm,
}

// injectedTotal counts faults that actually fired, by class; injectors
// feed it so a chaos run's blast radius is visible on /metrics.
var injectedTotal = obs.Default.CounterVec(
	"robustscale_chaos_faults_injected_total",
	"Chaos faults that fired during replay, by fault class.",
	"class")

// CountInjected records one fired fault of the given class.
func CountInjected(c Class) { injectedTotal.With(string(c)).Inc() }

// InjectedTotal returns how many faults have fired process-wide across
// all classes, read back from the injection counters.
func InjectedTotal() float64 {
	total := 0.0
	for _, c := range Classes {
		total += injectedTotal.With(string(c)).Value()
	}
	return total
}

// Event is one scheduled fault: it is active over the step window
// [Step, Step+max(Size,1)).
type Event struct {
	// Step is the replay step the fault starts at.
	Step int
	// Class is the fault class.
	Class Class
	// Size is the window length in steps (kill count for NodeKill).
	Size int
	// Value is a class-specific magnitude: the blow-up factor for
	// ForecastBlowup, injected seconds for ForecastLatency/ApplyTimeout.
	Value float64
}

// span is the event's window length: Size, but never under one step.
func (e Event) span() int { return max(e.Size, 1) }

// Schedule is a precomputed, immutable-after-build fault plan indexed by
// replay step. The zero value is an empty schedule; a nil *Schedule is
// also treated as empty by every method.
//
// Lookups sit on the per-step path of every chaos-enabled loop, so a
// schedule keeps one entry per class present — a handful, found by
// comparison, never hashed — each with its events sorted by step and its
// longest window. ActiveAt is then a binary search plus a walk back over
// only the events that could still cover the step: O(log n + overlap).
type Schedule struct {
	classes []classEvents
	total   int
}

// classEvents is one class's events, sorted by Step with same-step events
// in Add order, and the longest span among them.
type classEvents struct {
	class   Class
	events  []Event
	longest int
}

// of returns the class's events, nil when it has none.
func (s *Schedule) of(class Class) *classEvents {
	if s == nil {
		return nil
	}
	for i := range s.classes {
		if s.classes[i].class == class {
			return &s.classes[i]
		}
	}
	return nil
}

// startedBy returns how many of the sorted events start at or before step.
func startedBy(evs []Event, step int) int {
	lo, hi := 0, len(evs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if evs[m].Step <= step {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Add inserts an event after every event of its class that starts at or
// before its step.
func (s *Schedule) Add(e Event) {
	ce := s.of(e.Class)
	if ce == nil {
		s.classes = append(s.classes, classEvents{class: e.Class})
		ce = &s.classes[len(s.classes)-1]
	}
	ce.events = slices.Insert(ce.events, startedBy(ce.events, e.Step), e)
	ce.longest = max(ce.longest, e.span())
	s.total++
}

// Len returns the number of scheduled events.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return s.total
}

// Empty reports whether nothing is scheduled.
func (s *Schedule) Empty() bool { return s.Len() == 0 }

// Events returns every scheduled event, ordered by step then class.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	out := make([]Event, 0, s.total)
	for _, ce := range s.classes {
		out = append(out, ce.events...)
	}
	slices.SortStableFunc(out, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Step, b.Step), cmp.Compare(a.Class, b.Class))
	})
	return out
}

// ActiveAt returns the event of the given class whose window covers step,
// if any. Overlapping windows resolve to the latest-starting event, and
// same-step events to the one added last.
func (s *Schedule) ActiveAt(step int, class Class) (Event, bool) {
	ce := s.of(class)
	if ce == nil {
		return Event{}, false
	}
	evs := ce.events
	// Walk back from the last event started by step; once an event starts
	// a longest window or more before it, no earlier one can cover it.
	for i := startedBy(evs, step) - 1; i >= 0 && evs[i].Step+ce.longest > step; i-- {
		if step < evs[i].Step+evs[i].span() {
			return evs[i], true
		}
	}
	return Event{}, false
}

// WakeStallAt returns the extra cold-start seconds an in-flight wake
// suffers at the step (0 with no active WakeStall window).
func (s *Schedule) WakeStallAt(step int) float64 {
	if e, ok := s.ActiveAt(step, WakeStall); ok {
		return stallSeconds(e)
	}
	return 0
}

// stallSeconds is a WakeStall event's extra cold-start seconds.
func stallSeconds(e Event) float64 {
	if e.Value > 0 {
		return e.Value
	}
	return 900
}

// WakeFailAt reports whether wake-from-zero attempts fail at the step.
func (s *Schedule) WakeFailAt(step int) bool {
	_, ok := s.ActiveAt(step, WakeFail)
	return ok
}

// PartialProvisionAt reports whether resizes and wakes deliver only part
// of the requested fleet at the step.
func (s *Schedule) PartialProvisionAt(step int) bool {
	_, ok := s.ActiveAt(step, PartialProvision)
	return ok
}

// KillsAt returns how many nodes the schedule kills at exactly this step.
func (s *Schedule) KillsAt(step int) int {
	ce := s.of(NodeKill)
	if ce == nil {
		return 0
	}
	killed := 0
	for i := startedBy(ce.events, step) - 1; i >= 0 && ce.events[i].Step == step; i-- {
		killed += ce.events[i].span()
	}
	return killed
}

// StepFaults is one step's answer to every question the apply stage asks
// a schedule: the plant's kills and wake faults and the control-plane
// faults of the scale action. The zero value is a fault-free step.
type StepFaults struct {
	// Kills is KillsAt; StallSeconds is WakeStallAt.
	Kills        int
	StallSeconds float64
	// TimeoutSeconds is the active ApplyTimeout event's Value.
	TimeoutSeconds float64
	// Whether a window of the class is active at the step.
	WakeFail, PartialProvision, Reject, Timeout, Partial bool
}

// ApplyFault reports whether any control-plane fault class (rejection,
// partial fulfilment, timeout) is active at the step — the condition
// under which a failed scale action is an injected fault to hold through
// rather than a real error to propagate.
func (f StepFaults) ApplyFault() bool { return f.Reject || f.Partial || f.Timeout }

// Window is a schedule's StepFaults over the consecutive steps
// [From, From+len(Steps)): one control round's worth, so the apply stage
// asks its schedule once per round instead of several times per step.
// The owner sizes Steps once; Fill never allocates.
type Window struct {
	From  int
	Steps []StepFaults
}

// Fill answers the window from the schedule starting at step from, in
// one pass over the events of each class the apply stage reads that
// could cover it. Window classes resolve as ActiveAt does, since a later
// event in a class's order starts later or was added later: each event
// overwrites the steps it covers. Kills sum the events starting at a
// step, as KillsAt does.
func (w *Window) Fill(s *Schedule, from int) {
	w.From = from
	clear(w.Steps)
	if s == nil {
		return
	}
	to := from + len(w.Steps)
	for ci := range s.classes {
		ce := &s.classes[ci]
		if !applyClass(ce.class) {
			continue
		}
		kills := ce.class == NodeKill
		// The events that start after from-longest and before to are the
		// ones that can cover a step of the window.
		for i := startedBy(ce.events, from-ce.longest); i < len(ce.events) && ce.events[i].Step < to; i++ {
			e := &ce.events[i]
			if kills {
				if e.Step >= from {
					w.Steps[e.Step-from].Kills += e.span()
				}
				continue
			}
			for j := max(e.Step, from) - from; j < min(e.Step+e.span(), to)-from; j++ {
				w.Steps[j].set(e)
			}
		}
	}
}

// At returns the faults of the step: none outside the window.
func (w *Window) At(step int) StepFaults {
	if i := step - w.From; i >= 0 && i < len(w.Steps) {
		return w.Steps[i]
	}
	return StepFaults{}
}

// applyClass reports whether the apply stage reads the class.
func applyClass(c Class) bool {
	switch c {
	case NodeKill, WakeStall, WakeFail, PartialProvision, ApplyReject, ApplyTimeout, ApplyPartial:
		return true
	}
	return false
}

// set records e as the step's active event of its window class.
func (f *StepFaults) set(e *Event) {
	switch e.Class {
	case WakeStall:
		f.StallSeconds = stallSeconds(*e)
	case WakeFail:
		f.WakeFail = true
	case PartialProvision:
		f.PartialProvision = true
	case ApplyReject:
		f.Reject = true
	case ApplyTimeout:
		f.Timeout, f.TimeoutSeconds = true, e.Value
	case ApplyPartial:
		f.Partial = true
	}
}

// Profile parameterizes deterministic schedule generation: per-class
// per-step fault probabilities plus class magnitudes. Each class draws
// from its own seed-derived RNG stream, so enabling one class never
// perturbs another's event placement — a single-class run is the exact
// restriction of the all-class run.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// Seed drives event placement; required when any rate is positive.
	Seed int64
	// Steps is the replay length the schedule covers.
	Steps int
	// Rates maps each class to its per-step fault probability.
	Rates map[Class]float64
	// KillSize is nodes killed per NodeKill event (default 1).
	KillSize int
	// WindowLen is the window length of telemetry and apply faults in
	// steps (default 3).
	WindowLen int
	// BlowupFactor multiplies the fan under ForecastBlowup (default 1e6).
	BlowupFactor float64
	// LatencySeconds is injected per ForecastLatency/ApplyTimeout event
	// (default 30).
	LatencySeconds float64
}

// collapseFraction is the remaining pool fraction during a PoolCollapse
// window. wakeStallSeconds is the extra cold-start latency of a WakeStall
// event: 1.5 replay steps at the default 10-minute aggregation, enough to
// push a wake past its step.
const (
	collapseFraction = 0.5
	wakeStallSeconds = 900
)

// Validate reports configuration errors.
func (p Profile) Validate() error {
	if p.Steps < 0 {
		return fmt.Errorf("chaos: negative profile steps %d", p.Steps)
	}
	if p.KillSize < 0 {
		return fmt.Errorf("chaos: negative kill size %d", p.KillSize)
	}
	if p.WindowLen < 0 {
		return fmt.Errorf("chaos: negative window length %d", p.WindowLen)
	}
	anyRate := false
	for class, rate := range p.Rates {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("chaos: %s rate %v outside [0, 1]", class, rate)
		}
		if rate > 0 {
			anyRate = true
		}
		if !validClass(class) {
			return fmt.Errorf("chaos: unknown fault class %q", class)
		}
	}
	if anyRate && p.Seed == 0 {
		return fmt.Errorf("chaos: profile %q needs an explicit non-zero seed for deterministic injection", p.Name)
	}
	return nil
}

func validClass(c Class) bool {
	for _, known := range Classes {
		if c == known {
			return true
		}
	}
	return false
}

// Only returns a copy of the profile with every class but the given one
// disabled — the per-class cell of a resilience matrix.
func (p Profile) Only(class Class) Profile {
	out := p
	out.Rates = map[Class]float64{class: p.Rates[class]}
	return out
}

// classSeed derives a per-class RNG seed so class streams are independent.
func classSeed(seed int64, class Class) int64 {
	h := fnv.New64a()
	h.Write([]byte(class))
	derived := seed ^ int64(h.Sum64())
	if derived == 0 {
		derived = 1
	}
	return derived
}

// Build expands the profile into a concrete schedule.
func (p Profile) Build() (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	killSize := p.KillSize
	if killSize == 0 {
		killSize = 1
	}
	window := p.WindowLen
	if window == 0 {
		window = 3
	}
	blowup := p.BlowupFactor
	if blowup == 0 {
		blowup = 1e6
	}
	latency := p.LatencySeconds
	if latency == 0 {
		latency = 30
	}
	sched := &Schedule{}
	for _, class := range Classes {
		rate := p.Rates[class]
		if rate <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(classSeed(p.Seed, class)))
		for step := 0; step < p.Steps; step++ {
			if rng.Float64() >= rate {
				continue
			}
			e := Event{Step: step, Class: class}
			switch class {
			case NodeKill:
				e.Size = killSize
			case ForecastBlowup:
				e.Value = blowup
			case ForecastLatency, ApplyTimeout:
				e.Size = window
				e.Value = latency
			case PoolCollapse:
				e.Size = window
				e.Value = collapseFraction
			case WakeStall:
				e.Size = window
				e.Value = wakeStallSeconds
			default:
				e.Size = window
			}
			sched.Add(e)
		}
	}
	return sched, nil
}

// Preset returns a named chaos profile. Steps and Seed are left zero for
// the caller to fill in.
//
//	none       no faults (the baseline twin of every chaos run)
//	forecast   forecaster faults only
//	telemetry  telemetry faults only
//	apply      control-plane faults only
//	node-kill  infrastructure faults only
//	all        every class at moderate rates
//	smoke      every class at aggressive rates, sized for short CI runs
func Preset(name string) (Profile, error) {
	switch name {
	case "none":
		return Profile{Name: name}, nil
	case "forecast":
		return Profile{Name: name, Rates: map[Class]float64{
			ForecastError: 0.05, ForecastNaN: 0.05, ForecastCrossing: 0.04,
			ForecastBlowup: 0.03, ForecastLatency: 0.03,
		}}, nil
	case "telemetry":
		return Profile{Name: name, Rates: map[Class]float64{
			TelemetryStale: 0.05, TelemetryDropout: 0.03, TelemetryDuplicate: 0.03,
		}}, nil
	case "apply":
		return Profile{Name: name, Rates: map[Class]float64{
			ApplyReject: 0.06, ApplyPartial: 0.04, ApplyTimeout: 0.04,
		}}, nil
	case "node-kill":
		return Profile{Name: name, Rates: map[Class]float64{NodeKill: 0.04}}, nil
	case "all":
		return Profile{Name: name, Rates: map[Class]float64{
			ForecastError: 0.03, ForecastNaN: 0.03, ForecastCrossing: 0.02,
			ForecastBlowup: 0.02, ForecastLatency: 0.02,
			TelemetryStale: 0.03, TelemetryDropout: 0.02, TelemetryDuplicate: 0.02,
			ApplyReject: 0.04, ApplyPartial: 0.03, ApplyTimeout: 0.03,
			NodeKill: 0.03,
		}}, nil
	case "smoke":
		return Profile{Name: name, Rates: map[Class]float64{
			ForecastError: 0.25, ForecastNaN: 0.25, ForecastCrossing: 0.2,
			ForecastBlowup: 0.15, ForecastLatency: 0.1,
			TelemetryStale: 0.2, TelemetryDropout: 0.15, TelemetryDuplicate: 0.15,
			ApplyReject: 0.25, ApplyPartial: 0.15, ApplyTimeout: 0.15,
			NodeKill: 0.15,
		}}, nil
	case "wake":
		return Profile{Name: name, Rates: map[Class]float64{
			WakeStall: 0.05, WakeFail: 0.04, PartialProvision: 0.04,
		}}, nil
	case "wake-storm":
		return Profile{Name: name, Rates: map[Class]float64{
			WakeStorm: 0.02, WakeStall: 0.03, WakeFail: 0.03,
		}}, nil
	case "zone-outage":
		return Profile{Name: name, Rates: map[Class]float64{ZoneOutage: 0.03}}, nil
	case "pool-collapse":
		return Profile{Name: name, Rates: map[Class]float64{PoolCollapse: 0.04}}, nil
	case "admission-reject":
		return Profile{Name: name, Rates: map[Class]float64{AdmissionReject: 0.05}}, nil
	case "fleet":
		return Profile{Name: name, Rates: map[Class]float64{
			ForecastError: 0.02, ForecastNaN: 0.02, TelemetryStale: 0.02,
			ApplyReject: 0.03, NodeKill: 0.02,
			ZoneOutage: 0.02, PoolCollapse: 0.02, AdmissionReject: 0.03,
		}}, nil
	default:
		return Profile{}, fmt.Errorf("chaos: unknown profile %q (want none|forecast|telemetry|apply|node-kill|all|smoke|wake|wake-storm|zone-outage|pool-collapse|admission-reject|fleet)", name)
	}
}
