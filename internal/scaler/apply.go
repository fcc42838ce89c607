package scaler

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	breakerState = obs.Default.Gauge(
		"robustscale_apply_breaker_state",
		"Circuit breaker state of the apply path: 0 closed, 1 open, 2 half-open.")
)

// BackoffConfig shapes the exponential backoff between apply retries.
type BackoffConfig struct {
	// MaxAttempts bounds total tries per round, first included (default 3).
	MaxAttempts int
	// Base is the delay after the first failure (default 1s).
	Base time.Duration
	// Multiplier grows the delay per retry (default 2).
	Multiplier float64
	// Max caps the delay (default 30s).
	Max time.Duration
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Base <= 0 {
		c.Base = time.Second
	}
	if c.Multiplier < 1 {
		c.Multiplier = 2
	}
	if c.Max <= 0 {
		c.Max = 30 * time.Second
	}
	return c
}

// Delay returns the backoff before retry number retry (1-based: the
// delay between the first failure and the second attempt is Delay(1)).
func (c BackoffConfig) Delay(retry int) time.Duration {
	c = c.withDefaults()
	d := float64(c.Base)
	for i := 1; i < retry; i++ {
		d *= c.Multiplier
		if d >= float64(c.Max) {
			return c.Max
		}
	}
	if d > float64(c.Max) {
		return c.Max
	}
	return time.Duration(d)
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

// Breaker is the control loop's one consecutive-failure circuit breaker.
// Threshold consecutive failures open it (one failure when half-open);
// it stays open for Cooldown ticks, and the tick that ends the cooldown
// moves it to half-open. Failure and Success do nothing while it is
// open. Its clients choose what a tick is: the Applier ticks once per
// scale action (one replay step), the WakeGuard once per round while
// open, pool quarantine once per round served in quarantine. The zero
// value is a closed breaker with the defaults. Safe for concurrent use.
//
// Tick and Success are no-ops on a closed breaker with no failure
// streak — every healthy scale action's case — so they, and State, read
// one atomic flag and return without the lock. Every change of position
// takes the lock and republishes the flag before releasing it.
type Breaker struct {
	// Threshold is the consecutive failure count that opens the breaker
	// (default 3).
	Threshold int
	// Cooldown is how many ticks the breaker stays open (default 1).
	Cooldown int

	// dirty is set exactly while the breaker is not closed with zero
	// failures; the zero value is a clean breaker.
	dirty    atomic.Bool
	mu       sync.Mutex
	state    BreakerState
	failures int
	// ticksLeft is the rest of the cooldown; positive exactly while open.
	ticksLeft int
	trips     int64
}

// publish republishes the dirty flag; callers hold the lock.
func (b *Breaker) publish() {
	b.dirty.Store(b.state != BreakerClosed || b.failures != 0)
}

// Tick advances an open breaker's cooldown by one tick and returns the
// state after it.
func (b *Breaker) Tick() BreakerState {
	if !b.dirty.Load() {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		if b.ticksLeft--; b.ticksLeft <= 0 {
			b.state = BreakerHalfOpen
		}
	}
	b.publish()
	return b.state
}

// Success records a success: it closes a closed or half-open breaker and
// clears the failure streak.
func (b *Breaker) Success() {
	if !b.dirty.Load() {
		return
	}
	b.mu.Lock()
	if b.state != BreakerOpen {
		b.state, b.failures = BreakerClosed, 0
	}
	b.publish()
	b.mu.Unlock()
}

// Failure records a failure and reports whether it opened the breaker:
// the Threshold-th consecutive one, or any in half-open.
func (b *Breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		return false
	}
	threshold := b.Threshold
	if threshold <= 0 {
		threshold = 3
	}
	defer b.publish()
	if b.failures++; b.state == BreakerClosed && b.failures < threshold {
		return false
	}
	b.state, b.ticksLeft = BreakerOpen, max(b.Cooldown, 1)
	b.trips++
	return true
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	if !b.dirty.Load() {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips counts the times the breaker opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Applier drives one scale action through retry-with-backoff and the
// circuit breaker. Backoff is virtual: delays are accounted in metrics
// but not slept, which keeps replays and tests instant.
type Applier struct {
	// Apply performs the scale action; required.
	Apply func(target int) error
	// Backoff shapes the retry schedule (zero value = defaults).
	Backoff BackoffConfig
	// Breaker, when set, gates the whole action; ScaleTo ticks it once.
	Breaker *Breaker
	// Clock stamps journal events (virtual time in replays); defaults to
	// time.Now.
	Clock func() time.Time
}

// ScaleTo attempts the scale action with retries. It ticks the breaker
// first, so a breaker's cooldown counts scale actions — one per replay
// step. On success the breaker closes and nil is returned. When the
// breaker is open, or every attempt fails, an error is returned and the
// caller is expected to hold its current allocation — the safe degraded
// behavior; holds are counted in robustscale_apply_holds_total. The
// breaker's state changes are mirrored into
// robustscale_apply_breaker_state; a closed breaker never writes it.
func (a *Applier) ScaleTo(target int) error {
	if a.Apply == nil {
		return fmt.Errorf("scaler: applier has no apply function")
	}
	state := BreakerClosed
	if a.Breaker != nil {
		if state = a.Breaker.Tick(); state != BreakerClosed {
			breakerState.Set(float64(state))
		}
		if state == BreakerOpen {
			applyHolds.Inc()
			return fmt.Errorf("%w: holding current allocation (scale to %d deferred)", ErrBreakerOpen, target)
		}
	}
	cfg := a.Backoff.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			applyRetries.Inc()
			applyBackoffSeconds.Add(cfg.Delay(attempt - 1).Seconds())
		}
		if err := a.Apply(target); err != nil {
			lastErr = err
			applyFailures.Inc()
			continue
		}
		if a.Breaker != nil {
			a.Breaker.Success()
			if state != BreakerClosed {
				breakerState.Set(float64(BreakerClosed))
			}
		}
		return nil
	}
	if a.Breaker != nil && a.Breaker.Failure() {
		breakerState.Set(float64(BreakerOpen))
	}
	applyHolds.Inc()
	now := time.Now()
	if a.Clock != nil {
		now = a.Clock()
	}
	obs.DefaultJournal.RecordAt(now, "apply-failed",
		fmt.Sprintf("scale to %d failed after %d attempts: %v", target, cfg.MaxAttempts, lastErr),
		map[string]float64{"target": float64(target), "attempts": float64(cfg.MaxAttempts)})
	return fmt.Errorf("scaler: scale to %d failed after %d attempts: %w", target, cfg.MaxAttempts, lastErr)
}
