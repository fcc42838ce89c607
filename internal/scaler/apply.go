package scaler

import (
	"errors"
	"fmt"
	"time"

	"robustscale/internal/obs"
)

// ErrBreakerOpen is wrapped by Applier.ScaleTo when the circuit breaker
// is open: the control plane has failed repeatedly and the loop should
// hold its current allocation until the cooldown elapses.
var ErrBreakerOpen = errors.New("scaler: circuit breaker open")

// Apply-path instruments on the process-wide registry.
var (
	applyRetries = obs.Default.Counter(
		"robustscale_apply_retries_total",
		"Scale-apply attempts beyond the first, across all rounds.")
	applyFailures = obs.Default.Counter(
		"robustscale_apply_failures_total",
		"Individual scale-apply attempts that returned an error.")
	applyHolds = obs.Default.Counter(
		"robustscale_apply_holds_total",
		"Rounds that held the current allocation because the apply path was unavailable (breaker open or retries exhausted).")
	applyBackoffSeconds = obs.Default.Counter(
		"robustscale_apply_backoff_seconds_total",
		"Backoff delay accumulated between apply retries; virtual, never slept.")
)

// backoff is the delay before retry number retry (1-based: the one
// between the first failure and the second attempt is backoff(1)): 1 s,
// doubling per retry, capped at 30 s.
func backoff(retry int) time.Duration {
	if retry > 5 {
		return 30 * time.Second
	}
	return time.Second << (retry - 1)
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: the guarded path runs normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the path is refused until the cooldown ends.
	BreakerOpen
	// BreakerHalfOpen: the next attempt is the probe; success closes the
	// breaker, failure reopens it.
	BreakerHalfOpen
)

// String returns the state label used in errors and documentation.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state-%d", int(s))
	}
}

// BreakerThreshold consecutive failures open a Breaker: failed scale
// actions, failed wakes or clipped rounds, whichever its client counts.
const BreakerThreshold = 3

// Breaker is the control loop's one consecutive-failure circuit breaker.
// BreakerThreshold consecutive failures open it (one failure when
// half-open); it stays open for Cooldown ticks, and the tick that ends
// the cooldown moves it to half-open. Failure and Success do nothing
// while it is open. Its clients choose what a tick is: the Applier ticks
// once per scale action (one replay step), the WakeGuard once per round
// while open, pool quarantine once per round served in quarantine. The
// zero value is a closed breaker with a one-tick cooldown. Like Guard it
// is owned by one control loop and is not safe for concurrent use.
type Breaker struct {
	// Cooldown is how many ticks the breaker stays open (default 1).
	Cooldown int

	state    BreakerState
	failures int
	// ticksLeft is the rest of the cooldown; positive exactly while open.
	ticksLeft int
	trips     int64
}

// Tick advances an open breaker's cooldown by one tick and returns the
// state after it.
func (b *Breaker) Tick() BreakerState {
	if b.state == BreakerOpen {
		if b.ticksLeft--; b.ticksLeft <= 0 {
			b.state = BreakerHalfOpen
		}
	}
	return b.state
}

// Success records a success: it closes a closed or half-open breaker and
// clears the failure streak.
func (b *Breaker) Success() {
	if b.state != BreakerOpen {
		b.state, b.failures = BreakerClosed, 0
	}
}

// Failure records a failure and reports whether it opened the breaker:
// the BreakerThreshold-th consecutive one, or any in half-open.
func (b *Breaker) Failure() bool {
	if b.state == BreakerOpen {
		return false
	}
	if b.failures++; b.state == BreakerClosed && b.failures < BreakerThreshold {
		return false
	}
	b.state, b.ticksLeft = BreakerOpen, max(b.Cooldown, 1)
	b.trips++
	return true
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState { return b.state }

// Trips counts the times the breaker opened.
func (b *Breaker) Trips() int64 { return b.trips }

// ApplyError is the error of a scale action whose every attempt failed;
// Err is the last attempt's.
type ApplyError struct {
	Target, Attempts int
	Err              error
}

func (e *ApplyError) Error() string {
	return fmt.Sprintf("scaler: scale to %d failed after %d attempts: %v", e.Target, e.Attempts, e.Err)
}

func (e *ApplyError) Unwrap() error { return e.Err }

// Applier drives one scale action through retry-with-backoff and the
// circuit breaker. Backoff is virtual: delays are accounted in metrics
// but not slept, which keeps replays and tests instant. It journals
// nothing: its caller sees every failure in the error ScaleTo returns.
type Applier struct {
	// Apply performs the scale action (a plant, or a chaos-wrapped one);
	// required.
	Apply interface{ ScaleTo(target int) error }
	// Attempts bounds the tries per scale action, first included
	// (default 3); retries back off exponentially.
	Attempts int
	// Breaker gates the whole action; required. ScaleTo ticks it once.
	Breaker *Breaker
}

// ScaleTo attempts the scale action with retries. It ticks the breaker
// first, so a breaker's cooldown counts scale actions — one per replay
// step. On success the breaker closes and nil is returned. When the
// breaker is open an error wrapping ErrBreakerOpen is returned, when
// every attempt fails an *ApplyError, and the caller is expected to hold
// its current allocation — the safe degraded behavior; holds are counted
// in robustscale_apply_holds_total.
func (a *Applier) ScaleTo(target int) error {
	if a.Apply == nil {
		return fmt.Errorf("scaler: applier has no apply function")
	}
	if a.Breaker == nil {
		return fmt.Errorf("scaler: applier has no breaker")
	}
	if a.Breaker.Tick() == BreakerOpen {
		applyHolds.Inc()
		return fmt.Errorf("%w: holding current allocation (scale to %d deferred)", ErrBreakerOpen, target)
	}
	attempts := a.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			applyRetries.Inc()
			applyBackoffSeconds.Add(backoff(attempt - 1).Seconds())
		}
		if err := a.Apply.ScaleTo(target); err != nil {
			lastErr = err
			applyFailures.Inc()
			continue
		}
		a.Breaker.Success()
		return nil
	}
	a.Breaker.Failure()
	applyHolds.Inc()
	return &ApplyError{Target: target, Attempts: attempts, Err: lastErr}
}
