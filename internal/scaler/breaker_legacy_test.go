package scaler

import (
	"bytes"
	"testing"
	"time"
)

// The three breakers the loop ran before there was one Breaker, kept as
// reference implementations: the apply path's wall-time breaker, the wake
// guard's round-counting breaker and pool quarantine's counters.
// FuzzBreakerMatchesLegacy drives each of them and a Breaker in that
// client's tick pattern and requires the same behaviour event for event.

// legacyApplyBreaker is the apply path's breaker: its cooldown is virtual
// time since the failure that opened it, checked when a scale action asks
// to proceed.
type legacyApplyBreaker struct {
	threshold int
	cooldown  time.Duration
	state     BreakerState
	failures  int
	openedAt  time.Time
}

func (b *legacyApplyBreaker) allow(now time.Time) bool {
	if b.state == BreakerOpen {
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	}
	return true
}

func (b *legacyApplyBreaker) success() { b.failures, b.state = 0, BreakerClosed }

func (b *legacyApplyBreaker) failure(now time.Time) {
	b.failures++
	if b.state == BreakerHalfOpen || b.failures >= b.threshold {
		b.openedAt, b.state = now, BreakerOpen
	}
}

// legacyWakeBreaker is the wake guard's breaker: half-open is a closed
// breaker one failure short of its threshold.
type legacyWakeBreaker struct {
	keepWarmAfterFails, cooldownRounds int
	consecFails, cooldownLeft          int
	open                               bool
	trips                              int64
}

// round is the open-breaker branch of a Shape call.
func (b *legacyWakeBreaker) round() {
	if b.open {
		if b.cooldownLeft--; b.cooldownLeft <= 0 {
			b.open = false
			b.consecFails = b.keepWarmAfterFails - 1
		}
	}
}

func (b *legacyWakeBreaker) result(ok bool) {
	if ok {
		b.consecFails = 0
		return
	}
	b.consecFails++
	if !b.open && b.consecFails >= b.keepWarmAfterFails {
		b.open, b.cooldownLeft = true, b.cooldownRounds
		b.trips++
	}
}

// legacyQuarantine is the controller's quarantine bookkeeping: a clipped
// round counts toward the threshold, an unclipped one resets the count, a
// round planned in quarantine counts the quarantine down.
type legacyQuarantine struct {
	after, rounds                     int
	flap, quarantineLeft, quarantines int
}

func (q *legacyQuarantine) admitted(clipped bool) {
	switch {
	case clipped && q.quarantineLeft == 0:
		if q.flap++; q.after > 0 && q.flap >= q.after {
			q.quarantineLeft = q.rounds
			q.quarantines++
		}
	case !clipped && q.quarantineLeft == 0:
		q.flap = 0
	}
}

func (q *legacyQuarantine) served() {
	if q.quarantineLeft > 0 {
		if q.quarantineLeft--; q.quarantineLeft == 0 {
			q.flap = 0
		}
	}
}

// Script events: each byte after a script's three header bytes is one,
// modulo 3.
const (
	evFailure = iota
	evSuccess
	evTick
)

// reloaded returns a breaker configured like b holding what b saved.
func reloaded(t *testing.T, b *Breaker) *Breaker {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := &Breaker{Threshold: b.Threshold, Cooldown: b.Cooldown}
	if err := fresh.Load(&buf); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// toTrip is how many consecutive failures would open b, configured with
// threshold, from here (0 while open).
func toTrip(b *Breaker, threshold int) int {
	switch b.State() {
	case BreakerOpen:
		return 0
	case BreakerHalfOpen:
		return 1
	}
	return threshold - b.failures
}

// driveLegacyBreakers runs one script through the three clients. The
// header bytes pick the threshold (1–4), the cooldown (1–8 ticks; the
// apply path's as a duration that rounds up to it), and the event after
// which each new breaker goes through Save and Load.
func driveLegacyBreakers(t *testing.T, script []byte) {
	if len(script) < 3 {
		return
	}
	threshold, ticks := 1+int(script[0]%4), 1+int(script[1]%8)
	reloadAt := int(script[2])
	events := script[3:]

	// Apply: each tick is one scale action, a replay step; the failure or
	// success that follows is its outcome, reported only when the breaker
	// let it through.
	const step = 10 * time.Minute
	cooldown := time.Duration(ticks)*step - time.Duration(script[1]/8%10)*time.Minute
	oldApply := &legacyApplyBreaker{threshold: threshold, cooldown: cooldown}
	apply := &Breaker{Threshold: threshold, Cooldown: int((cooldown + step - 1) / step)}
	now := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	var applyTrips int64

	// Wake: the real guard; a tick is one round of Shape.
	oldWake := &legacyWakeBreaker{keepWarmAfterFails: threshold, cooldownRounds: ticks}
	wake := &WakeGuard{Config: WakeGuardConfig{KeepWarmAfterFails: threshold, BreakerCooldownRounds: ticks}}

	// Quarantine: a failure is a clipped round, a success an unclipped
	// one, a tick a round served in quarantine, as Controller.admit
	// drives them.
	oldQuar := &legacyQuarantine{after: threshold, rounds: ticks}
	quar := &Breaker{Threshold: threshold, Cooldown: ticks}

	for i, ev := range events {
		switch ev % 3 {
		case evFailure:
			if oldApply.state != BreakerOpen {
				if oldApply.failure(now); oldApply.state == BreakerOpen {
					applyTrips++
				}
			}
			if apply.State() != BreakerOpen {
				apply.Failure()
			}
			oldWake.result(false)
			wake.OnWakeResult(false)
			oldQuar.admitted(true)
			quar.Failure()
		case evSuccess:
			if oldApply.state != BreakerOpen {
				oldApply.success()
			}
			if apply.State() != BreakerOpen {
				apply.Success()
			}
			oldWake.result(true)
			wake.OnWakeResult(true)
			oldQuar.admitted(false)
			quar.Success()
		case evTick:
			now = now.Add(step)
			oldApply.allow(now)
			apply.Tick()
			oldWake.round()
			wake.Shape([]int{2}, false)
			if quar.State() == BreakerOpen {
				oldQuar.served()
				if quar.Tick() == BreakerHalfOpen {
					quar.Success()
				}
			}
		}
		if i == reloadAt {
			apply, quar = reloaded(t, apply), reloaded(t, quar)
			var buf bytes.Buffer
			if err := wake.Save(&buf); err != nil {
				t.Fatal(err)
			}
			wake = &WakeGuard{Config: wake.Config}
			if err := wake.Load(&buf); err != nil {
				t.Fatal(err)
			}
		}

		if got, want := apply.State(), oldApply.state; got != want || apply.failures != oldApply.failures || apply.Trips() != applyTrips {
			t.Fatalf("apply, event %d: %v after %d failures and %d trips, legacy %v after %d and %d",
				i, got, apply.failures, apply.Trips(), want, oldApply.failures, applyTrips)
		}
		wb := &wake.breaker
		if wake.BreakerOpen() != oldWake.open || wake.BreakerTrips() != oldWake.trips ||
			(oldWake.open && wb.ticksLeft != oldWake.cooldownLeft) ||
			(!oldWake.open && toTrip(wb, threshold) != threshold-oldWake.consecFails) {
			t.Fatalf("wake, event %d: open %v, %d trips, %d to trip, %d ticks left; legacy open %v, %d trips, %d consecutive fails, %d rounds left",
				i, wake.BreakerOpen(), wake.BreakerTrips(), toTrip(wb, threshold), wb.ticksLeft, oldWake.open, oldWake.trips, oldWake.consecFails, oldWake.cooldownLeft)
		}
		if open := oldQuar.quarantineLeft > 0; (quar.State() == BreakerOpen) != open || quar.Trips() != int64(oldQuar.quarantines) ||
			(open && quar.ticksLeft != oldQuar.quarantineLeft) || (!open && toTrip(quar, threshold) != threshold-oldQuar.flap) {
			t.Fatalf("quarantine, event %d: %v, %d trips, %d to trip, %d ticks left; legacy %d clipped, %d left, %d quarantines",
				i, quar.State(), quar.Trips(), toTrip(quar, threshold), quar.ticksLeft, oldQuar.flap, oldQuar.quarantineLeft, oldQuar.quarantines)
		}
	}
}

func FuzzBreakerMatchesLegacy(f *testing.F) {
	// Trip, ride out the cooldown, fail the probe, recover; then long
	// cooldowns, thresholds of one and a reload mid-cooldown.
	f.Add([]byte{1, 2, 4, 0, 0, 0, 2, 2, 2, 0, 2, 2, 2, 1, 0, 1})
	f.Add([]byte{3, 0x47, 1, 0, 0, 0, 0, 2, 0, 2, 1, 2, 2, 2, 2, 2, 2, 2, 0})
	f.Add([]byte{0, 0x5f, 7, 0, 2, 0, 1, 0, 2, 2, 2, 0, 0, 2, 1})
	f.Fuzz(driveLegacyBreakers)
}
