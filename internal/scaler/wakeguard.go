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
	// WakeParked: a parked tenant stays parked (plan zeroed).
	WakeParked
	// WakeStorm: a wake storm forced the parked tenant awake (ForceWake).
	WakeStorm
)

// Reason is the decision-record annotation narrated by -explain; an
// ordinary active round stays unannotated.
func (t WakeTransition) Reason() string {
	switch t {
	case WakePark, WakeParked:
		return "parked"
	case WakeStorm:
		return "wake-storm"
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

// The park/wake hysteresis and the wake breaker; BreakerThreshold
// consecutive failed wakes open the breaker.
const (
	// minIdleRounds consecutive idle rounds must pass before an active
	// tenant may park, also after a wake: zero<->nonzero flapping pays
	// at least that many rounds per cycle.
	minIdleRounds = 3
	// breakerCooldownRounds is how many rounds the breaker stays open
	// before a half-open probe wake is allowed.
	breakerCooldownRounds = 6
)

// WakeGuard is the per-tenant park/wake state machine. Like Guard it is
// driven by one control loop and is not safe for concurrent use.
type WakeGuard struct {
	// Tenant labels journal events (empty for single-tenant loops).
	Tenant string
	// Clock stamps journal events; defaults to time.Now.
	Clock func() time.Time

	parked     bool
	idleRounds int
	// breaker counts failed wakes and its cooldown in rounds; tripped
	// says a failed wake opened it since the last JournalTrip. Save leaves
	// tripped out: a loop checkpoints after the apply barrier that
	// journals the trip.
	breaker Breaker
	tripped bool

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
// It journals nothing: JournalShape records what it decided.
func (g *WakeGuard) Shape(plan []int, idle bool) WakeTransition {
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
		// A tick that ends the cooldown makes the next wake attempt the
		// probe: one more failure re-trips, a success closes.
		g.breaker.Tick()
		return WakeKeepWarm
	}

	if g.parked {
		if idle {
			for i := range plan {
				plan[i] = 0
			}
			g.idleRounds++
			return WakeParked
		}
		// Demand returned: unpark.
		g.parked = false
		g.idleRounds = 0
		g.wakes++
		for i := range plan {
			if plan[i] < 1 {
				plan[i] = 1
			}
		}
		return WakeWake
	}

	// Active tenant.
	if idle {
		g.idleRounds++
		if g.idleRounds >= minIdleRounds {
			g.parked = true
			g.parks++
			for i := range plan {
				plan[i] = 0
			}
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
// It journals nothing: JournalTrip records a trip.
func (g *WakeGuard) OnWakeResult(ok bool) {
	if ok {
		g.breaker.Success()
		return
	}
	g.breaker.Cooldown = breakerCooldownRounds
	if g.breaker.Failure() {
		g.parked, g.tripped = false, true
	}
}

// JournalShape records the journal event of the transition Shape just
// returned, if it has one: a wake on returned demand, a park, or the tick
// that ends an open breaker's cooldown. Shape leaves it to its caller so
// that a fleet whose workers shape tenants in parallel records the events
// at its plan barrier, in tenant order, whatever the worker count.
func (g *WakeGuard) JournalShape(tr WakeTransition) {
	switch {
	case tr == WakeWake:
		g.journal("waking from zero on returned demand", nil)
	case tr == WakePark:
		g.journal(fmt.Sprintf("parking after %d idle rounds", g.idleRounds),
			map[string]float64{"idle_rounds": float64(g.idleRounds)})
	case tr == WakeKeepWarm && g.breaker.State() == BreakerHalfOpen:
		g.journal("wake breaker half-open: next wake is the probe", nil)
	}
}

// JournalTrip records the wake breaker's opening when a failed wake has
// opened it since the last JournalTrip. A fleet calls it at its apply
// barrier, in tenant order.
func (g *WakeGuard) JournalTrip() {
	if !g.tripped {
		return
	}
	g.tripped = false
	g.journal(fmt.Sprintf("wake breaker open after %d consecutive failed wakes: holding 1 keep-warm node(s)", BreakerThreshold),
		map[string]float64{"consecutive_fails": BreakerThreshold, "keep_warm_nodes": 1})
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
// section. The varint after the idle rounds is a retired slot, written 0.
func (g *WakeGuard) Save(w io.Writer) error {
	var sec [4 * binary.MaxVarintLen64]byte
	b := wire.AppendBool(wire.Scratch(w), g.parked)
	b = wire.AppendVarints(b, int64(g.idleRounds), 0)
	b = wire.AppendSection(b, g.breaker.appendBlob(sec[:0]))
	_, err := w.Write(wire.AppendVarints(b, g.parks, g.wakes, g.blockedParks))
	return err
}

// Load restores a snapshot written by Save; a snapshot that does not load
// leaves the guard as it was. The retired slot is read and dropped.
func (g *WakeGuard) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	parked, idleRounds, retired, breaker := rd.Bool(), rd.Int(), rd.Int(), rd.Section()
	parks, wakes, blockedParks := rd.Varint(), rd.Varint(), rd.Varint()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("scaler: loading wake-guard state: %w", err)
	}
	if idleRounds < 0 || retired < 0 {
		return fmt.Errorf("scaler: wake-guard snapshot has negative counters")
	}
	blob := wire.Bytes(breaker)
	if err := g.breaker.Load(&blob); err != nil {
		return fmt.Errorf("scaler: loading wake-guard state: %w", err)
	}
	g.parked, g.idleRounds = parked, idleRounds
	g.parks, g.wakes, g.blockedParks = parks, wakes, blockedParks
	return nil
}
