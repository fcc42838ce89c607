package scaler

import (
	"errors"
	"fmt"
	"sync"
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
		"Backoff delay accumulated between apply retries (virtual unless a Sleep hook is set).")
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
	// BreakerClosed: applies flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: applies are refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe apply is allowed; success closes the
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

// Breaker is a consecutive-failure circuit breaker for the apply path.
// Threshold consecutive round failures open it; after Cooldown it lets a
// half-open probe through, closing on success and reopening on failure.
// Safe for concurrent use.
type Breaker struct {
	// Threshold is the consecutive failure count that opens the breaker
	// (default 3).
	Threshold int
	// Cooldown is how long the breaker stays open before probing
	// (default 2 minutes).
	Cooldown time.Duration

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 3
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 2 * time.Minute
	}
	return b.Cooldown
}

// Allow reports whether an apply may proceed at the given time, moving
// an open breaker to half-open once the cooldown has elapsed.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown() {
			b.setState(BreakerHalfOpen)
			return true
		}
		return false
	default:
		return true
	}
}

// Success records a successful apply round, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	b.setState(BreakerClosed)
	b.mu.Unlock()
}

// Failure records a failed apply round at the given time; a half-open
// probe failure or the Threshold-th consecutive failure opens the
// breaker.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state == BreakerHalfOpen || b.failures >= b.threshold() {
		b.openedAt = now
		b.setState(BreakerOpen)
	}
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// setState mirrors a transition into the gauge — a process-wide cache
// line every tenant's Success would otherwise store to on every step;
// callers hold b.mu.
func (b *Breaker) setState(s BreakerState) {
	if b.state != s {
		b.state = s
		breakerState.Set(float64(s))
	}
}

// Applier drives one scale action through retry-with-backoff and the
// circuit breaker. A nil Sleep (the default) makes backoff virtual —
// delays are accounted in metrics but not slept — which keeps replays
// and tests instant; the daemon can install a real sleep.
type Applier struct {
	// Apply performs the scale action; required.
	Apply func(target int) error
	// Backoff shapes the retry schedule (zero value = defaults).
	Backoff BackoffConfig
	// Breaker, when set, gates the whole round.
	Breaker *Breaker
	// Clock supplies the round's notion of now (virtual time in replays);
	// defaults to time.Now.
	Clock func() time.Time
	// Sleep, when set, is called with each backoff delay.
	Sleep func(time.Duration)
}

func (a *Applier) now() time.Time {
	if a.Clock != nil {
		return a.Clock()
	}
	return time.Now()
}

// ScaleTo attempts the scale action with retries. On success the breaker
// closes and nil is returned. When the breaker is open, or every attempt
// fails, an error is returned and the caller is expected to hold its
// current allocation — the safe degraded behavior; holds are counted in
// robustscale_apply_holds_total.
func (a *Applier) ScaleTo(target int) error {
	if a.Apply == nil {
		return fmt.Errorf("scaler: applier has no apply function")
	}
	now := a.now()
	if a.Breaker != nil && !a.Breaker.Allow(now) {
		applyHolds.Inc()
		return fmt.Errorf("%w: holding current allocation (scale to %d deferred)", ErrBreakerOpen, target)
	}
	cfg := a.Backoff.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			applyRetries.Inc()
			d := cfg.Delay(attempt - 1)
			applyBackoffSeconds.Add(d.Seconds())
			if a.Sleep != nil {
				a.Sleep(d)
			}
		}
		if err := a.Apply(target); err != nil {
			lastErr = err
			applyFailures.Inc()
			continue
		}
		if a.Breaker != nil {
			a.Breaker.Success()
		}
		return nil
	}
	if a.Breaker != nil {
		a.Breaker.Failure(a.now())
	}
	applyHolds.Inc()
	obs.DefaultJournal.RecordAt(now, "apply-failed",
		fmt.Sprintf("scale to %d failed after %d attempts: %v", target, cfg.MaxAttempts, lastErr),
		map[string]float64{"target": float64(target), "attempts": float64(cfg.MaxAttempts)})
	return fmt.Errorf("scaler: scale to %d failed after %d attempts: %w", target, cfg.MaxAttempts, lastErr)
}
