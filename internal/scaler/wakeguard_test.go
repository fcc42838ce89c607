package scaler

import (
	"bytes"
	"testing"
)

func plan(vals ...int) []int { return vals }

func TestWakeGuardParkHysteresis(t *testing.T) {
	g := &WakeGuard{Config: WakeGuardConfig{MinIdleRounds: 3, WakeDebounceRounds: 2}}

	// Two idle rounds hold the floor; the third parks.
	if tr := g.Shape(plan(0, 0), true); tr != WakeHold {
		t.Fatalf("idle round 1: %v", tr)
	}
	if tr := g.Shape(plan(0, 0), true); tr != WakeHold {
		t.Fatalf("idle round 2: %v", tr)
	}
	p := plan(0, 0)
	if tr := g.Shape(p, true); tr != WakePark {
		t.Fatalf("idle round 3: %v", tr)
	}
	for i, v := range p {
		if v != 0 {
			t.Errorf("parked plan[%d] = %d", i, v)
		}
	}
	if !g.Parked() || g.Parks() != 1 || g.BlockedParks() != 2 {
		t.Errorf("parked=%v parks=%d blocked=%d", g.Parked(), g.Parks(), g.BlockedParks())
	}

	// Held plans are floored at one node, never negative.
	g2 := &WakeGuard{}
	p2 := plan(-2, 0, 3)
	g2.Shape(p2, true)
	for i, v := range p2 {
		if v < 1 && i < 2 {
			t.Errorf("held plan[%d] = %d, want >= 1", i, v)
		}
	}
}

func TestWakeGuardWakeDebounce(t *testing.T) {
	g := &WakeGuard{Config: WakeGuardConfig{MinIdleRounds: 1, WakeDebounceRounds: 3}}

	// Park immediately (MinIdleRounds 1, fresh guard has large sinceWake).
	g.sinceWake = 10
	if tr := g.Shape(plan(0), true); tr != WakePark {
		t.Fatalf("initial park: %v", tr)
	}

	// Demand returns: wake.
	p := plan(0)
	if tr := g.Shape(p, false); tr != WakeWake {
		t.Fatalf("wake: %v", tr)
	}
	if p[0] != 1 {
		t.Errorf("woken plan floor = %d", p[0])
	}

	// Idle again right away: the debounce blocks re-parking for two more
	// rounds even though MinIdleRounds is satisfied.
	if tr := g.Shape(plan(0), true); tr != WakeHold {
		t.Fatalf("flap round 1: %v", tr)
	}
	if tr := g.Shape(plan(0), true); tr != WakeHold {
		t.Fatalf("flap round 2: %v", tr)
	}
	if tr := g.Shape(plan(0), true); tr != WakePark {
		t.Fatalf("flap round 3 should finally park: %v", tr)
	}
	if g.BlockedParks() != 2 {
		t.Errorf("blocked parks = %d, want 2", g.BlockedParks())
	}
}

func TestWakeGuardBreakerKeepWarm(t *testing.T) {
	g := &WakeGuard{Config: WakeGuardConfig{
		KeepWarmAfterFails: 2, BreakerCooldownRounds: 3,
	}}

	g.OnWakeResult(false)
	if g.BreakerOpen() {
		t.Fatal("breaker tripped early")
	}
	g.OnWakeResult(false)
	if !g.BreakerOpen() || g.BreakerTrips() != 1 {
		t.Fatal("breaker did not trip after 2 consecutive fails")
	}

	// While open: every plan is floored at the one-node keep-warm floor,
	// idleness is ignored, parking is impossible.
	for round := 0; round < 2; round++ {
		p := plan(0, 1, 5)
		if tr := g.Shape(p, true); tr != WakeKeepWarm {
			t.Fatalf("open round %d: %v", round, tr)
		}
		if p[0] != 1 || p[1] != 1 || p[2] != 5 {
			t.Errorf("open round %d plan = %v, want keep-warm floor 1", round, p)
		}
		if g.Parked() {
			t.Fatal("parked with breaker open")
		}
	}

	// Third open round exhausts the cooldown: half-open.
	g.Shape(plan(0), true)
	if g.BreakerOpen() {
		t.Fatal("breaker still open after cooldown")
	}
	// Half-open: one more failure re-trips immediately.
	g.OnWakeResult(false)
	if !g.BreakerOpen() || g.BreakerTrips() != 2 {
		t.Fatal("probe failure did not re-trip the breaker")
	}
	// Ride out the cooldown again, then a success closes it fully.
	g.Shape(plan(0), true)
	g.Shape(plan(0), true)
	g.Shape(plan(0), true)
	g.OnWakeResult(true)
	g.OnWakeResult(false) // a single later failure must not trip
	if g.BreakerOpen() {
		t.Fatal("breaker tripped on one failure after a success")
	}
}

func TestWakeGuardForceWake(t *testing.T) {
	g := &WakeGuard{Config: WakeGuardConfig{MinIdleRounds: 1}}
	g.sinceWake = 10
	g.Shape(plan(0), true) // park

	if !g.ForceWake() {
		t.Fatal("ForceWake on a parked tenant returned false")
	}
	if g.Parked() || g.Wakes() != 1 {
		t.Errorf("parked=%v wakes=%d after ForceWake", g.Parked(), g.Wakes())
	}
	// Idempotent on active tenants.
	if g.ForceWake() {
		t.Error("ForceWake on an active tenant returned true")
	}
}

func TestWakeGuardNeverNegative(t *testing.T) {
	g := &WakeGuard{}
	for _, idle := range []bool{true, false, true, true, false} {
		p := plan(-5, -1, 0, 2)
		g.Shape(p, idle)
		for i, v := range p {
			if v < 0 {
				t.Fatalf("Shape emitted negative allocation %d at %d (idle=%v)", v, i, idle)
			}
		}
	}
}

func TestWakeGuardSaveLoad(t *testing.T) {
	a := &WakeGuard{Config: WakeGuardConfig{MinIdleRounds: 2, KeepWarmAfterFails: 2}}
	a.Shape(plan(0), true)
	a.Shape(plan(0), true) // parked now (sinceWake grew past debounce)
	a.Shape(plan(3), false)
	a.OnWakeResult(false)
	a.OnWakeResult(false) // breaker open

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := &WakeGuard{Config: a.Config}
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if b.Parked() != a.Parked() || b.BreakerOpen() != a.BreakerOpen() ||
		b.Parks() != a.Parks() || b.Wakes() != a.Wakes() || b.BreakerTrips() != a.BreakerTrips() {
		t.Fatal("restored guard state diverged")
	}
	// Both continue identically.
	for round := 0; round < 10; round++ {
		pa, pb := plan(0, 4), plan(0, 4)
		ta, tb := a.Shape(pa, round%3 == 0), b.Shape(pb, round%3 == 0)
		if ta != tb || pa[0] != pb[0] || pa[1] != pb[1] {
			t.Fatalf("round %d diverged: %v/%v vs %v/%v", round, ta, pa, tb, pb)
		}
	}
}
