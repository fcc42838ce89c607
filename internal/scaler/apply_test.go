package scaler

import (
	"errors"
	"testing"
	"time"
)

func TestBackoffDelay(t *testing.T) {
	cases := map[int]time.Duration{
		1:  time.Second,
		2:  2 * time.Second,
		3:  4 * time.Second,
		5:  16 * time.Second,
		6:  30 * time.Second, // capped
		99: 30 * time.Second,
	}
	for retry, want := range cases {
		if got := backoff(retry); got != want {
			t.Errorf("backoff(%d) = %v, want %v", retry, got, want)
		}
	}
}

// applyFunc is a scale action as a function.
type applyFunc func(int) error

func (f applyFunc) ScaleTo(n int) error { return f(n) }

func TestApplierRetriesThenSucceeds(t *testing.T) {
	calls := 0
	a := &Applier{
		Apply: applyFunc(func(n int) error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		}),
		Attempts: 3,
		Breaker:  &Breaker{},
	}
	if err := a.ScaleTo(4); err != nil {
		t.Fatalf("retry path should succeed: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestApplierExhaustsAndBreakerOpens(t *testing.T) {
	br := &Breaker{Cooldown: 3}
	calls := 0
	a := &Applier{
		Apply:    applyFunc(func(int) error { calls++; return errors.New("down") }),
		Attempts: 2,
		Breaker:  br,
	}
	for round := 1; round < BreakerThreshold; round++ {
		if err := a.ScaleTo(3); err == nil {
			t.Fatal("exhausted retries should error")
		}
		if br.State() != BreakerClosed {
			t.Fatalf("%d failed rounds, breaker = %v", round, br.State())
		}
	}
	if err := a.ScaleTo(3); err == nil {
		t.Fatal("the last round should also fail")
	}
	if br.State() != BreakerOpen {
		t.Fatalf("threshold reached, breaker = %v", br.State())
	}

	// Open breaker: the next two actions are refused before touching the
	// control plane; each is one tick of the 3-tick cooldown.
	before := calls
	for i := 0; i < 2; i++ {
		if err := a.ScaleTo(3); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("action %d in the cooldown: err = %v, want ErrBreakerOpen", i, err)
		}
	}
	if calls != before {
		t.Error("open breaker still called apply")
	}

	// The third tick ends the cooldown: a half-open probe goes through and
	// its success closes the breaker.
	a.Apply = applyFunc(func(int) error { calls++; return nil })
	if err := a.ScaleTo(3); err != nil {
		t.Fatalf("half-open probe should succeed: %v", err)
	}
	if br.State() != BreakerClosed {
		t.Errorf("successful probe should close, state = %v", br.State())
	}
}

// TestApplierNeedsBreaker: an Applier without a breaker refuses the
// action before calling Apply.
func TestApplierNeedsBreaker(t *testing.T) {
	a := &Applier{Apply: applyFunc(func(int) error { t.Fatal("apply called"); return nil })}
	if err := a.ScaleTo(2); err == nil {
		t.Fatal("an applier without a breaker scaled")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	br := &Breaker{Cooldown: 2}
	for range BreakerThreshold - 1 {
		br.Failure()
	}
	if !br.Failure() || br.State() != BreakerOpen {
		t.Fatalf("state = %v", br.State())
	}
	if br.Tick() != BreakerOpen {
		t.Error("the first of two cooldown ticks should keep it open")
	}
	if br.Success(); br.Failure() || br.State() != BreakerOpen {
		t.Error("an open breaker should ignore Success and Failure")
	}
	if br.Tick() != BreakerHalfOpen {
		t.Fatalf("state = %v after the cooldown, want half-open", br.State())
	}
	if !br.Failure() || br.State() != BreakerOpen || br.Trips() != 2 {
		t.Errorf("failed probe should reopen, state = %v, trips = %d", br.State(), br.Trips())
	}
}

// TestBreakerTransitions drives one breaker through every transition —
// closed with a growing streak, open, the cooldown, a failed probe, a
// successful one — and requires the sequential machine's position at
// each step and one trip per opening.
func TestBreakerTransitions(t *testing.T) {
	br := &Breaker{Cooldown: 2}
	want := func(step string, got, want BreakerState) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: state %v, want %v", step, got, want)
		}
	}
	const cycles = 500
	for i := 0; i < cycles; i++ {
		want("clean tick", br.Tick(), BreakerClosed)
		br.Success()
		for f := 1; f < BreakerThreshold; f++ {
			if br.Failure() {
				t.Fatalf("failure %d of %d opened the breaker", f, BreakerThreshold)
			}
			want("tick on a streak", br.Tick(), BreakerClosed)
		}
		if !br.Failure() {
			t.Fatal("the last failure of the streak did not open the breaker")
		}
		want("open", br.State(), BreakerOpen)
		br.Success()
		want("success while open", br.State(), BreakerOpen)
		want("first cooldown tick", br.Tick(), BreakerOpen)
		want("last cooldown tick", br.Tick(), BreakerHalfOpen)
		if !br.Failure() {
			t.Fatal("a failed probe did not reopen the breaker")
		}
		want("failed probe", br.State(), BreakerOpen)
		br.Tick()
		want("cooldown again", br.Tick(), BreakerHalfOpen)
		br.Success()
		want("successful probe", br.State(), BreakerClosed)
	}
	if got := br.Trips(); got != 2*cycles {
		t.Errorf("trips = %d, want %d", got, 2*cycles)
	}
}
