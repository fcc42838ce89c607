package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"robustscale/internal/wire"
)

// BurnRule is one multi-window burn-rate alert: it fires when the error
// budget is being consumed at >= Factor times the sustainable rate over
// BOTH the long and the short window (the short window makes the alert
// resolve quickly once the bleeding stops; the long window keeps a brief
// blip from paging). Windows are measured in observation ticks — control
// rounds or replay steps — so firing rounds are deterministic under
// virtual time.
type BurnRule struct {
	Name   string  `json:"name"`
	Factor float64 `json:"factor"`
	Long   int     `json:"long_window"`
	Short  int     `json:"short_window"`
}

// DefaultBurnRules returns the classic two-tier page/ticket pair scaled
// to an error-budget window of w ticks (the SRE workbook's 1h/5m and
// 6h/30m windows for a 30-day budget, expressed as fractions of w).
func DefaultBurnRules(w int) []BurnRule {
	frac := func(d int) int {
		n := w / d
		if n < 1 {
			n = 1
		}
		return n
	}
	return []BurnRule{
		{Name: "page", Factor: 14.4, Long: frac(24), Short: frac(288)},
		{Name: "ticket", Factor: 6, Long: frac(4), Short: frac(24)},
	}
}

// ParseBurnRules parses a comma-separated rule spec of the form
// "[name=]<factor>x:<long>/<short>", e.g. "page=14.4x:6/1,ticket=6x:36/3".
// Unnamed rules are named rule0, rule1, ...
func ParseBurnRules(spec string) ([]BurnRule, error) {
	var rules []BurnRule
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name := fmt.Sprintf("rule%d", i)
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name, part = part[:eq], part[eq+1:]
		}
		x := strings.IndexByte(part, 'x')
		colon := strings.IndexByte(part, ':')
		slash := strings.IndexByte(part, '/')
		if x < 0 || colon != x+1 || slash < colon {
			return nil, fmt.Errorf("obs: burn rule %q not of the form [name=]<factor>x:<long>/<short>", part)
		}
		if name == "" || slices.ContainsFunc(rules, func(r BurnRule) bool { return r.Name == name }) {
			return nil, fmt.Errorf("obs: burn rule %q: empty or duplicate name %q", part, name)
		}
		factor, err := strconv.ParseFloat(part[:x], 64)
		if err != nil || !(factor > 0 && factor <= math.MaxFloat64) {
			return nil, fmt.Errorf("obs: burn rule %q: bad factor", part)
		}
		long, err := strconv.Atoi(part[colon+1 : slash])
		if err != nil {
			return nil, fmt.Errorf("obs: burn rule %q: bad long window", part)
		}
		short, err := strconv.Atoi(part[slash+1:])
		if err != nil {
			return nil, fmt.Errorf("obs: burn rule %q: bad short window", part)
		}
		if short < 1 || long < short {
			return nil, fmt.Errorf("obs: burn rule %q: need long >= short >= 1", part)
		}
		rules = append(rules, BurnRule{Name: name, Factor: factor, Long: long, Short: short})
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("obs: empty burn rule spec %q", spec)
	}
	return rules, nil
}

// SLOConfig configures an SLOTracker.
type SLOConfig struct {
	// Target is the violation-rate objective, e.g. 0.01 for "at most 1%
	// of steps may breach QoS". Must be in (0, 1).
	Target float64
	// Window is the rolling error-budget window in observation ticks.
	Window int
	// Rules are the burn-rate alerts; nil means DefaultBurnRules(Window).
	Rules []BurnRule
}

// Validate reports why the config cannot drive a tracker: a target
// outside (0, 1), a window under one tick, or a rule that does not fit
// the window, cannot fire (a factor that is not finite and positive) or
// shares its name, which labels its burn-rate gauge, with another or with
// none. A daemon whose target is 0 has the SLO plane off and does not
// call it.
func (c SLOConfig) Validate() error {
	if !(c.Target > 0 && c.Target < 1) {
		return fmt.Errorf("obs: SLO target %v outside (0, 1)", c.Target)
	}
	if c.Window < 1 {
		return fmt.Errorf("obs: SLO window %d < 1", c.Window)
	}
	for i, r := range c.Rules {
		if r.Short < 1 || r.Long < r.Short || r.Long > c.Window || !(r.Factor > 0 && r.Factor <= math.MaxFloat64) ||
			r.Name == "" || slices.ContainsFunc(c.Rules[:i], func(o BurnRule) bool { return o.Name == r.Name }) {
			return fmt.Errorf("obs: burn rule %+v invalid for window %d", r, c.Window)
		}
	}
	return nil
}

// AlertEvent is one burn-rate alert transition (firing or resolved).
type AlertEvent struct {
	Rule      string    `json:"rule"`
	Firing    bool      `json:"firing"`
	Time      time.Time `json:"time"`
	Tick      uint64    `json:"tick"`
	BurnLong  float64   `json:"burn_long"`
	BurnShort float64   `json:"burn_short"`
}

// sloAlertHistoryCap bounds the retained alert transition history.
const sloAlertHistoryCap = 256

// sloSlot is one tick's worth of observations.
type sloSlot struct {
	Bad   uint64
	Total uint64
}

// SLOTracker maintains a rolling error budget over virtual time and
// evaluates multi-window burn-rate alerts on every tick. All state is a
// pure function of the observation sequence — given the same sequence of
// ObserveAt calls, firing/resolve ticks are identical across reruns,
// worker counts, and warm restarts (Save/Load round-trips the window).
// Safe for concurrent use, though observations themselves must arrive in
// a deterministic order for deterministic alerting.
type SLOTracker struct {
	mu   sync.Mutex
	cfg  SLOConfig
	ring []sloSlot // ring buffer of the last Window ticks
	tick uint64    // total ticks observed

	bad, total uint64 // lifetime counts

	firing      []bool   // per rule
	firstFire   []uint64 // per rule; 1-based tick, 0 = never fired
	transitions uint64   // total firing<->resolved edges across rules

	history []AlertEvent

	// Journal, if set, receives an "alert" event on every transition,
	// labelled with Tenant.
	Journal *Journal
	Tenant  string

	instr *sloInstruments
}

// NewSLOTracker returns a tracker for the given config; a config that
// fails Validate panics (callers validate their flags first).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Rules == nil {
		cfg.Rules = DefaultBurnRules(cfg.Window)
	}
	return &SLOTracker{
		cfg:       cfg,
		ring:      make([]sloSlot, cfg.Window),
		firing:    make([]bool, len(cfg.Rules)),
		firstFire: make([]uint64, len(cfg.Rules)),
	}
}

// Config returns the tracker's configuration.
func (s *SLOTracker) Config() SLOConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// sloInstruments are the exposition handles a tracker drives. They are
// process-global (registered against Default) so there should be one
// instrumented tracker per process.
type sloInstruments struct {
	active      *Gauge
	budget      *Gauge
	burn        *GaugeVec
	transitions *Counter
}

var (
	sloInstrOnce sync.Once
	sloInstr     *sloInstruments
)

// InstrumentDefault wires the tracker to the process-wide gauges:
// robustscale_alerts_active, robustscale_slo_error_budget_remaining,
// robustscale_slo_burn_rate{rule} and
// robustscale_slo_alert_transitions_total.
func (s *SLOTracker) InstrumentDefault() *SLOTracker {
	sloInstrOnce.Do(func() {
		sloInstr = &sloInstruments{
			active:      Default.Gauge("robustscale_alerts_active", "Number of burn-rate alert rules currently firing."),
			budget:      Default.Gauge("robustscale_slo_error_budget_remaining", "Fraction of the rolling-window error budget left (1 = untouched, <0 = overspent)."),
			burn:        Default.GaugeVec("robustscale_slo_burn_rate", "Long-window error-budget burn rate per alert rule (1 = exactly sustainable).", "rule"),
			transitions: Default.Counter("robustscale_slo_alert_transitions_total", "Burn-rate alert firing/resolved transitions."),
		}
	})
	s.mu.Lock()
	s.instr = sloInstr
	s.mu.Unlock()
	return s
}

// windowSums returns bad/total summed over the last w ticks (w clamped
// to what has been observed).
func (s *SLOTracker) windowSums(w int) (bad, total uint64) {
	n := int(s.tick)
	if w > n {
		w = n
	}
	if w > len(s.ring) {
		w = len(s.ring)
	}
	for i := 0; i < w; i++ {
		slot := s.ring[(int(s.tick)-1-i+len(s.ring)*2)%len(s.ring)]
		bad += slot.Bad
		total += slot.Total
	}
	return bad, total
}

// burnRate converts window sums into a burn rate: the observed bad
// fraction divided by the target. 1 means the budget is being spent
// exactly as fast as it refills; 0 when the window saw no traffic.
func (s *SLOTracker) burnRate(bad, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total) / s.cfg.Target
}

// ObserveAt records one tick: total observations, of which bad breached
// the objective, at virtual time now. It then re-evaluates every burn
// rule and emits transitions.
func (s *SLOTracker) ObserveAt(now time.Time, bad, total uint64) {
	if bad > total {
		bad = total
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ring[int(s.tick)%len(s.ring)] = sloSlot{Bad: bad, Total: total}
	s.tick++
	s.bad += bad
	s.total += total

	active := 0
	for i, r := range s.cfg.Rules {
		longBad, longTotal := s.windowSums(r.Long)
		shortBad, shortTotal := s.windowSums(r.Short)
		burnLong := s.burnRate(longBad, longTotal)
		burnShort := s.burnRate(shortBad, shortTotal)
		firing := burnLong >= r.Factor && burnShort >= r.Factor
		if s.instr != nil {
			s.instr.burn.With(r.Name).Set(burnLong)
		}
		if firing != s.firing[i] {
			s.firing[i] = firing
			s.transitions++
			if firing && s.firstFire[i] == 0 {
				s.firstFire[i] = s.tick
			}
			ev := AlertEvent{
				Rule: r.Name, Firing: firing, Time: now, Tick: s.tick,
				BurnLong: burnLong, BurnShort: burnShort,
			}
			if len(s.history) >= sloAlertHistoryCap {
				copy(s.history, s.history[1:])
				s.history = s.history[:len(s.history)-1]
			}
			s.history = append(s.history, ev)
			if s.instr != nil {
				s.instr.transitions.Inc()
			}
			if s.Journal != nil {
				verb := "resolved"
				if firing {
					verb = "firing"
				}
				s.Journal.RecordTenantAt(now, s.Tenant, "alert",
					fmt.Sprintf("burn-rate alert %s %s (%.1fx budget)", r.Name, verb, r.Factor),
					map[string]float64{
						"burn_long":  burnLong,
						"burn_short": burnShort,
						"factor":     r.Factor,
						"tick":       float64(s.tick),
					})
			}
		}
		if s.firing[i] {
			active++
		}
	}
	if s.instr != nil {
		s.instr.active.Set(float64(active))
		s.instr.budget.Set(s.budgetRemainingLocked())
	}
}

// budgetRemainingLocked computes the rolling-window budget fraction left.
func (s *SLOTracker) budgetRemainingLocked() float64 {
	bad, total := s.windowSums(s.cfg.Window)
	if total == 0 {
		return 1
	}
	return 1 - float64(bad)/(s.cfg.Target*float64(total))
}

// RuleStatus is the queryable state of one burn rule.
type RuleStatus struct {
	BurnRule
	BurnLong      float64 `json:"burn_long"`
	BurnShort     float64 `json:"burn_short"`
	Firing        bool    `json:"firing"`
	FirstFireTick uint64  `json:"first_fire_tick,omitempty"` // 1-based; 0 = never
}

// SLOStatus is a point-in-time summary of the tracker.
type SLOStatus struct {
	Target          float64      `json:"target"`
	Window          int          `json:"window"`
	Tick            uint64       `json:"tick"`
	Bad             uint64       `json:"bad_total"`
	Total           uint64       `json:"observations_total"`
	WindowBad       uint64       `json:"window_bad"`
	WindowTotal     uint64       `json:"window_observations"`
	BudgetRemaining float64      `json:"error_budget_remaining"`
	ActiveAlerts    int          `json:"active_alerts"`
	Transitions     uint64       `json:"alert_transitions"`
	Rules           []RuleStatus `json:"rules"`
}

// Status returns the current SLO state.
func (s *SLOTracker) Status() SLOStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	wb, wt := s.windowSums(s.cfg.Window)
	st := SLOStatus{
		Target: s.cfg.Target, Window: s.cfg.Window, Tick: s.tick,
		Bad: s.bad, Total: s.total, WindowBad: wb, WindowTotal: wt,
		BudgetRemaining: s.budgetRemainingLocked(),
		Transitions:     s.transitions,
		Rules:           make([]RuleStatus, len(s.cfg.Rules)),
	}
	for i, r := range s.cfg.Rules {
		lb, lt := s.windowSums(r.Long)
		sb, stot := s.windowSums(r.Short)
		st.Rules[i] = RuleStatus{
			BurnRule: r,
			BurnLong: s.burnRate(lb, lt), BurnShort: s.burnRate(sb, stot),
			Firing: s.firing[i], FirstFireTick: s.firstFire[i],
		}
		if s.firing[i] {
			st.ActiveAlerts++
		}
	}
	return st
}

// FirstFiring returns the earliest tick (1-based) at which any rule
// fired, and whether any rule has ever fired.
func (s *SLOTracker) FirstFiring() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first uint64
	for _, t := range s.firstFire {
		if t > 0 && (first == 0 || t < first) {
			first = t
		}
	}
	return first, first > 0
}

// History returns a copy of the retained alert transitions.
func (s *SLOTracker) History() []AlertEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AlertEvent(nil), s.history...)
}

// Handler serves the SLO status as JSON (the /slo endpoint).
func (s *SLOTracker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Status())
	})
}

// AlertsHandler serves the active alerts and bounded transition history
// as JSON (the /alerts endpoint).
func (s *SLOTracker) AlertsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		st := s.Status()
		active := make([]RuleStatus, 0, len(st.Rules))
		for _, r := range st.Rules {
			if r.Firing {
				active = append(active, r)
			}
		}
		history := s.History()
		if history == nil {
			history = []AlertEvent{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Active  []RuleStatus `json:"active"`
			History []AlertEvent `json:"history"`
		}{Active: active, History: history})
	})
}

// Save writes the tracker state (layout in DESIGN.md §8): the config,
// the counters, the window oldest-first so the encoding is
// position-independent, and the alert history.
func (s *SLOTracker) Save(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := wire.AppendVarints(wire.AppendFloat(wire.Scratch(w), s.cfg.Target), int64(s.cfg.Window))
	b = binary.AppendUvarint(b, uint64(len(s.cfg.Rules)))
	for i, r := range s.cfg.Rules {
		b = wire.AppendFloat(wire.AppendSection(b, r.Name), r.Factor)
		b = wire.AppendBool(wire.AppendVarints(b, int64(r.Long), int64(r.Short)), s.firing[i])
		b = binary.AppendUvarint(b, s.firstFire[i])
	}
	n := min(s.tick, uint64(len(s.ring)))
	for _, v := range [...]uint64{s.tick, s.bad, s.total, s.transitions, n} {
		b = binary.AppendUvarint(b, v)
	}
	for i := s.tick - n; i < s.tick; i++ {
		slot := s.ring[i%uint64(len(s.ring))]
		b = binary.AppendUvarint(binary.AppendUvarint(b, slot.Bad), slot.Total)
	}
	b = binary.AppendUvarint(b, uint64(len(s.history)))
	for _, ev := range s.history {
		b = wire.AppendTime(wire.AppendBool(wire.AppendSection(b, ev.Rule), ev.Firing), ev.Time)
		b = wire.AppendFloat(wire.AppendFloat(binary.AppendUvarint(b, ev.Tick), ev.BurnLong), ev.BurnShort)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("obs: saving SLO tracker: %w", err)
	}
	return nil
}

// Load replaces the tracker state with a blob written by Save. The
// blob's target, window and rules must match the receiver's config —
// a changed SLO definition invalidates the budget, so the caller should
// start fresh on error.
func (s *SLOTracker) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	target, window := rd.Float(), rd.Int()
	rules := make([]BurnRule, rd.Count(13)) // a name count, a factor, two windows and a flag
	firing, firstFire := make([]bool, len(rules)), make([]uint64, len(rules))
	for i := range rules {
		rules[i] = BurnRule{Name: string(rd.Section()), Factor: rd.Float(), Long: rd.Int(), Short: rd.Int()}
		firing[i], firstFire[i] = rd.Bool(), rd.Uvarint()
	}
	tick, bad, total, transitions := rd.Uvarint(), rd.Uvarint(), rd.Uvarint(), rd.Uvarint()
	slots := wire.List(&rd, 2, func() sloSlot { return sloSlot{Bad: rd.Uvarint(), Total: rd.Uvarint()} })
	// An alert is at least a name count, a flag, a 16-byte time section, a
	// tick and two floats.
	history := wire.List(&rd, 35, func() AlertEvent {
		return AlertEvent{Rule: string(rd.Section()), Firing: rd.Bool(), Time: rd.Time(),
			Tick: rd.Uvarint(), BurnLong: rd.Float(), BurnShort: rd.Float()}
	})
	if err := rd.Done(); err != nil {
		return fmt.Errorf("obs: loading SLO tracker: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if target != s.cfg.Target || window != s.cfg.Window || len(rules) != len(s.cfg.Rules) {
		return fmt.Errorf("obs: SLO snapshot config mismatch (target %v/%v, window %d/%d)",
			target, s.cfg.Target, window, s.cfg.Window)
	}
	for i, r := range rules {
		if r != s.cfg.Rules[i] {
			return fmt.Errorf("obs: SLO snapshot rule %d mismatch: %+v vs %+v", i, r, s.cfg.Rules[i])
		}
	}
	if uint64(len(slots)) != min(tick, uint64(window)) || tick > math.MaxInt || len(history) > sloAlertHistoryCap {
		return fmt.Errorf("obs: SLO snapshot holds %d slots for %d ticks in a %d-tick window and %d alerts",
			len(slots), tick, window, len(history))
	}
	clear(s.ring)
	// Replay the saved slots at their original ring positions so the
	// next tick continues exactly where the saved run stopped.
	for i, slot := range slots {
		s.ring[(tick-uint64(len(slots)-i))%uint64(len(s.ring))] = slot
	}
	s.tick, s.bad, s.total = tick, bad, total
	copy(s.firing, firing)
	copy(s.firstFire, firstFire)
	s.transitions = transitions
	s.history = append(s.history[:0], history...)
	return nil
}
