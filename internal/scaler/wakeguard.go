// WakeGuard extends the degradation ladder to the zero boundary. The
// plain Guard assumes at least one node always runs; scale-to-zero adds
// two failure modes it cannot see: zero<->nonzero flapping (a tenant
// hovering at the idle threshold parks and cold-wakes every few rounds,
// paying the wake latency each time) and wake failure loops (a tenant
// that cannot come back from zero at all). WakeGuard shapes each round's
// plan with park/wake hysteresis and runs a wake Breaker whose open state
// degrades gracefully to a keep-warm floor: after enough consecutive
// failed wakes the tenant is pinned at one node or more and never parked
// until the breaker's cooldown ends.
package scaler

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"robustscale/internal/obs"
	"robustscale/internal/wire"
)

// WakeTransition classifies what Shape decided for the round.
type WakeTransition int

const (
	// WakeNone: the tenant is active with demand; plan passes through
	// (floored at one node).
	WakeNone WakeTransition = iota
	// WakeWake: the tenant leaves parked state this round.
	WakeWake
	// WakePark: the tenant parks (plan zeroed).
	WakePark
	// WakeHold: the tenant is idle but hysteresis blocks the park; it
	// holds a one-node floor.
	WakeHold
	// WakeKeepWarm: the wake breaker is open; the plan is floored at one
	// node regardless of demand.
	WakeKeepWarm
)

// Reason is the decision-record annotation narrated by -explain; an
// ordinary active round stays unannotated.
func (t WakeTransition) Reason() string {
	switch t {
	case WakePark:
		return "parked"
	case WakeKeepWarm:
		return "keep-warm"
	case WakeWake:
		return "wake"
	case WakeHold:
		return "wake-hold"
	}
	return ""
}

// Idle is the idleness verdict Shape is handed: the plan has no step
// above the one-node floor and the realized workload over the trailing
// horizon never rose above eps. Callers judge the genuine history, not a
// chaos-corrupted view, so telemetry faults cannot park a loaded tenant.
func Idle(plan []int, recent []float64, eps float64) bool {
	for _, v := range plan {
		if v > 1 {
			return false
		}
	}
	for _, w := range recent {
		if w > eps {
			return false
		}
	}
	return true
}

// WakeGuardConfig tunes the park/wake hysteresis and the wake breaker.
type WakeGuardConfig struct {
	// MinIdleRounds is how many consecutive idle rounds must pass before
	// an active tenant may park (default 3).
	MinIdleRounds int
	// WakeDebounceRounds blocks re-parking for this many rounds after a
	// wake, breaking zero<->nonzero flapping (default 2).
	WakeDebounceRounds int
	// KeepWarmAfterFails opens the wake breaker after this many
	// consecutive failed wakes (default 3).
	KeepWarmAfterFails int
	// BreakerCooldownRounds is how many rounds the breaker stays open
	// before a half-open probe wake is allowed (default 6).
	BreakerCooldownRounds int
}

// WithDefaults returns the configuration the guard runs with: every
// non-positive field replaced by its default. It is the one place those
// defaults live.
func (c WakeGuardConfig) WithDefaults() WakeGuardConfig {
	if c.MinIdleRounds <= 0 {
		c.MinIdleRounds = 3
	}
	if c.WakeDebounceRounds <= 0 {
		c.WakeDebounceRounds = 2
	}
	if c.KeepWarmAfterFails <= 0 {
		c.KeepWarmAfterFails = 3
	}
	if c.BreakerCooldownRounds <= 0 {
		c.BreakerCooldownRounds = 6
	}
	return c
}

// WakeGuard is the per-tenant park/wake state machine. Like Guard it is
// driven by one control loop and is not safe for concurrent use.
type WakeGuard struct {
	// Config tunes hysteresis and the breaker; zero values take defaults.
	Config WakeGuardConfig
	// Tenant labels journal events (empty for single-tenant loops).
	Tenant string
	// Clock stamps journal events; defaults to time.Now.
	Clock func() time.Time

	parked     bool
	idleRounds int
	sinceWake  int
	// breaker counts failed wakes and its cooldown in rounds.
	breaker Breaker

	// Lifetime counters.
	parks, wakes, blockedParks int64
}

// Parked reports whether the guard currently holds the tenant at zero.
func (g *WakeGuard) Parked() bool { return g.parked }

// BreakerOpen reports whether the wake breaker is holding the keep-warm
// floor.
func (g *WakeGuard) BreakerOpen() bool { return g.breaker.State() == BreakerOpen }

// Parks, Wakes, BlockedParks and BreakerTrips are lifetime counters.
func (g *WakeGuard) Parks() int64        { return g.parks }
func (g *WakeGuard) Wakes() int64        { return g.wakes }
func (g *WakeGuard) BlockedParks() int64 { return g.blockedParks }
func (g *WakeGuard) BreakerTrips() int64 { return g.breaker.Trips() }

// Shape applies park/wake hysteresis to the round's plan in place and
// returns the transition taken. idle is the caller's verdict that the
// tenant has no genuine demand this round (forecast floor and realized
// tail both below the idle threshold). Shape never emits a negative
// allocation, and with the breaker open it never emits below one node.
func (g *WakeGuard) Shape(plan []int, idle bool) WakeTransition {
	cfg := g.Config.WithDefaults()
	g.sinceWake++

	// Open breaker: graceful degradation. Hold the keep-warm floor no
	// matter what demand says; each such round is one cooldown tick.
	if g.breaker.State() == BreakerOpen {
		for i := range plan {
			if plan[i] < 1 {
				plan[i] = 1
			}
		}
		g.parked = false
		g.idleRounds = 0
		if g.breaker.Tick() == BreakerHalfOpen {
			// The next wake attempt is the probe: one more failure
			// re-trips, a success closes.
			g.journal("wake breaker half-open: next wake is the probe", nil)
		}
		return WakeKeepWarm
	}

	if g.parked {
		if idle {
			for i := range plan {
				plan[i] = 0
			}
			g.idleRounds++
			return WakePark
		}
		// Demand returned: unpark.
		g.parked = false
		g.idleRounds = 0
		g.sinceWake = 0
		g.wakes++
		for i := range plan {
			if plan[i] < 1 {
				plan[i] = 1
			}
		}
		g.journal("waking from zero on returned demand", nil)
		return WakeWake
	}

	// Active tenant.
	if idle {
		g.idleRounds++
		if g.idleRounds >= cfg.MinIdleRounds && g.sinceWake >= cfg.WakeDebounceRounds {
			g.parked = true
			g.parks++
			for i := range plan {
				plan[i] = 0
			}
			g.journal(fmt.Sprintf("parking after %d idle rounds", g.idleRounds),
				map[string]float64{"idle_rounds": float64(g.idleRounds)})
			return WakePark
		}
		// Hysteresis holds the tenant at a one-node floor.
		g.blockedParks++
		for i := range plan {
			if plan[i] < 1 {
				plan[i] = 1
			}
		}
		return WakeHold
	}

	g.idleRounds = 0
	for i := range plan {
		if plan[i] < 1 {
			plan[i] = 1
		}
	}
	return WakeNone
}

// OnWakeResult feeds the outcome of a wake attempt into the breaker: a
// success closes it and clears the failure streak; enough consecutive
// failures trip it open, pinning the keep-warm floor for the cooldown.
func (g *WakeGuard) OnWakeResult(ok bool) {
	if ok {
		g.breaker.Success()
		return
	}
	cfg := g.Config.WithDefaults()
	g.breaker.Threshold, g.breaker.Cooldown = cfg.KeepWarmAfterFails, cfg.BreakerCooldownRounds
	if g.breaker.Failure() {
		g.parked = false
		g.journal(fmt.Sprintf("wake breaker open after %d consecutive failed wakes: holding 1 keep-warm node(s)", cfg.KeepWarmAfterFails),
			map[string]float64{"consecutive_fails": float64(cfg.KeepWarmAfterFails), "keep_warm_nodes": 1})
	}
}

// ForceWake unparks the tenant immediately (a wake-storm drill or an
// operator override), bypassing idleness. It is a no-op for an active
// tenant or an open breaker.
func (g *WakeGuard) ForceWake() bool {
	if !g.parked || g.BreakerOpen() {
		return false
	}
	g.parked = false
	g.idleRounds = 0
	g.sinceWake = 0
	g.wakes++
	g.journal("forced wake (storm drill)", nil)
	return true
}

func (g *WakeGuard) journal(msg string, fields map[string]float64) {
	now := time.Now()
	if g.Clock != nil {
		now = g.Clock()
	}
	obs.DefaultJournal.RecordTenantAt(now, g.Tenant, "wake", msg, fields)
}

// Save snapshots the guard's mutable state, its breaker's blob as a
// section; configuration is the owner's to rebuild, matching every other
// component's persistence contract.
func (g *WakeGuard) Save(w io.Writer) error {
	var sec [4 * binary.MaxVarintLen64]byte
	b := wire.AppendBool(wire.Scratch(w), g.parked)
	b = wire.AppendVarints(b, int64(g.idleRounds), int64(g.sinceWake))
	b = wire.AppendSection(b, g.breaker.appendBlob(sec[:0]))
	_, err := w.Write(wire.AppendVarints(b, g.parks, g.wakes, g.blockedParks))
	return err
}

// Load restores a snapshot written by Save; a snapshot that does not load
// leaves the guard as it was.
func (g *WakeGuard) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	parked, idleRounds, sinceWake, breaker := rd.Bool(), rd.Int(), rd.Int(), rd.Section()
	parks, wakes, blockedParks := rd.Varint(), rd.Varint(), rd.Varint()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("scaler: loading wake-guard state: %w", err)
	}
	if idleRounds < 0 || sinceWake < 0 {
		return fmt.Errorf("scaler: wake-guard snapshot has negative counters")
	}
	blob := wire.Bytes(breaker)
	if err := g.breaker.Load(&blob); err != nil {
		return fmt.Errorf("scaler: loading wake-guard state: %w", err)
	}
	g.parked, g.idleRounds, g.sinceWake = parked, idleRounds, sinceWake
	g.parks, g.wakes, g.blockedParks = parks, wakes, blockedParks
	return nil
}
