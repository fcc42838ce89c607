package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Binding constraint labels: which constraint pinned a planned node
// count at one step.
const (
	// BindingDemand: the allocation is the ceiling forced by the driving
	// workload value (quantile, point forecast, or window statistic).
	BindingDemand = "demand"
	// BindingFloor: the one-node minimum bound, not demand, set the
	// allocation (the driving value was non-positive).
	BindingFloor = "floor"
)

// DefaultTenant is the tenant id of a single-tenant control plane: the
// daemon, the evaluation harness and the experiment runner stamp their
// records with it unless told otherwise, so the schema carries the field
// everywhere while single-tenant output stays stable.
const DefaultTenant = "default"

// Decision is the structured "why did we scale?" record of one planning
// round: everything needed to audit an allocation against its forecast
// inputs. Strategies fill the plan-shaped fields; the evaluation harness
// and the daemon stamp Step, Time, PrevNodes and Delta before recording.
type Decision struct {
	// Seq is assigned at record time, monotone across the process.
	Seq uint64 `json:"seq"`
	// Time is the virtual time of the planning round.
	Time time.Time `json:"time"`
	// Tenant labels which tenant the round planned for. Single-tenant
	// control loops use DefaultTenant.
	Tenant string `json:"tenant,omitempty"`
	// Strategy names the strategy that produced the plan.
	Strategy string `json:"strategy"`
	// Step is the series index of the planning origin; the round covers
	// steps [Step, Step+Horizon).
	Step int `json:"step"`
	// Horizon is the number of planned steps.
	Horizon int `json:"horizon"`
	// Theta is the per-node workload threshold in effect.
	Theta float64 `json:"theta"`
	// PrevNodes is the allocation in effect before the round.
	PrevNodes int `json:"prev_nodes"`
	// Nodes is the planned allocation per step.
	Nodes []int `json:"nodes"`
	// Delta is the first planned allocation minus PrevNodes.
	Delta int `json:"delta"`
	// U is the per-step uncertainty metric (Equation 8), when the
	// strategy computes it (adaptive).
	U []float64 `json:"u,omitempty"`
	// Tau is the per-step quantile level that bounded the allocation,
	// when the strategy is quantile-driven.
	Tau []float64 `json:"tau,omitempty"`
	// Tau1 and Tau2 are the optimistic and conservative levels of the
	// adaptive pair (equal for the single-level robust strategy).
	Tau1 float64 `json:"tau1,omitempty"`
	Tau2 float64 `json:"tau2,omitempty"`
	// Rho is the uncertainty threshold that escalates Tau1 to Tau2.
	Rho float64 `json:"rho,omitempty"`
	// Quantile is the per-step workload value that drove the allocation:
	// the forecast at Tau[t] for quantile strategies, the point forecast
	// for predictive ones, the window statistic for reactive ones.
	Quantile []float64 `json:"quantile,omitempty"`
	// Binding is the per-step binding constraint (Binding* labels).
	Binding []string `json:"binding,omitempty"`
	// Degraded names the guard degradation mode that produced this plan
	// ("repair", "last-known-good", "reactive"); empty for a normal round.
	Degraded string `json:"degraded,omitempty"`
	// DegradedReason says why the guard left normal mode, e.g. the
	// forecaster error or fan defect that triggered the fallback.
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Shed is how many nodes fleet admission control clipped from the
	// plan's first step when aggregate demand exceeded the shared pool;
	// zero for unconstrained or single-tenant rounds.
	Shed int `json:"shed,omitempty"`
	// ShedReason labels why the plan was clipped ("pool-exhausted",
	// "quarantine", ...); set whenever Shed > 0 and for quarantined
	// rounds even when the clip removed nothing.
	ShedReason string `json:"shed_reason,omitempty"`
}

// Covers reports whether the round planned the given series step.
func (d *Decision) Covers(step int) bool {
	return step >= d.Step && step < d.Step+len(d.Nodes)
}

// Explain renders the human-readable audit line for one planned step:
// the node transition, the bounding quantile against the previous
// capacity, and — for uncertainty-aware strategies — whether U crossed
// rho and escalated the quantile level.
func (d *Decision) Explain(step int) string {
	i := step - d.Step
	if i < 0 || i >= len(d.Nodes) {
		return fmt.Sprintf("step %d outside round [%d, %d) of %s", step, d.Step, d.Step+len(d.Nodes), d.Strategy)
	}
	prev := d.PrevNodes
	if i > 0 {
		prev = d.Nodes[i-1]
	}
	cur := d.Nodes[i]
	var b strings.Builder
	fmt.Fprintf(&b, "step %d [%s] ", step, d.Strategy)
	if cur == prev {
		fmt.Fprintf(&b, "held %d nodes", cur)
	} else {
		fmt.Fprintf(&b, "scaled %d -> %d", prev, cur)
	}
	if i < len(d.Quantile) {
		name := fmt.Sprintf("demand(t+%d)", i)
		if i < len(d.Tau) {
			name = fmt.Sprintf("q%g(t+%d)", d.Tau[i], i)
		}
		q := d.Quantile[i]
		capacity := float64(prev) * d.Theta
		rel := "<="
		if q > capacity {
			rel = ">"
		}
		fmt.Fprintf(&b, " because %s=%.6g %s capacity(%d)=%.6g", name, q, rel, prev, capacity)
	}
	if i < len(d.U) && i < len(d.Tau) && d.Rho > 0 {
		if d.U[i] >= d.Rho {
			fmt.Fprintf(&b, ", U=%.3g >= rho=%.3g so tau escalated to %g", d.U[i], d.Rho, d.Tau[i])
		} else {
			fmt.Fprintf(&b, ", U=%.3g < rho=%.3g so tau stayed at %g", d.U[i], d.Rho, d.Tau[i])
		}
	}
	if i < len(d.Binding) && d.Binding[i] != BindingDemand {
		fmt.Fprintf(&b, " [binding: %s]", d.Binding[i])
	}
	if d.Degraded != "" {
		fmt.Fprintf(&b, " [degraded: %s", d.Degraded)
		if d.DegradedReason != "" {
			fmt.Fprintf(&b, " — %s", d.DegradedReason)
		}
		b.WriteString("]")
	}
	if d.Shed > 0 || d.ShedReason != "" {
		fmt.Fprintf(&b, " [shed: %d node", d.Shed)
		if d.Shed != 1 {
			b.WriteString("s")
		}
		if d.ShedReason != "" {
			fmt.Fprintf(&b, " — %s", d.ShedReason)
		}
		b.WriteString("]")
	}
	return b.String()
}

// DecisionStore is a bounded ring of Decisions, the queryable companion
// to the journal: appends are O(1), memory is fixed at capacity, oldest
// records are overwritten first. Safe for concurrent use.
//
// Like the Tracer, a store starts disabled: capture sites (the scaler
// strategies and scaler.RecordDecision) check Enabled before assembling
// records, so an unobserved evaluation loop pays one atomic load per
// planning round. Record itself never checks — the gate is advisory for
// producers, not a lock on the data structure.
type DecisionStore struct {
	enabled atomic.Bool
	ring[Decision]
}

// SetEnabled switches decision capture on or off. Safe on a nil store.
func (s *DecisionStore) SetEnabled(v bool) {
	if s != nil {
		s.enabled.Store(v)
	}
}

// Enabled reports whether capture sites should assemble and record
// decisions into this store.
func (s *DecisionStore) Enabled() bool { return s != nil && s.enabled.Load() }

// DefaultDecisions is the process-wide decision store, served by the
// daemon at /decisions.
var DefaultDecisions = NewDecisionStore(512)

// NewDecisionStore returns a store holding at most capacity decisions.
// The ring is allocated on first Record: decisions are pointer-rich, so
// an idle store (the library default) adds nothing to the GC scan set.
func NewDecisionStore(capacity int) *DecisionStore {
	return &DecisionStore{ring: newRing[Decision](capacity)}
}

// Record appends a copy of the decision, assigning and returning its
// sequence number. Slice contents are copied into buffers recycled from
// the overwritten ring slot, so the caller keeps ownership of its slices
// and steady-state recording allocates nothing once the ring has filled.
func (s *DecisionStore) Record(d Decision) uint64 {
	s.mu.Lock()
	slot := s.push()
	nodes, u, tau, quantile, binding := slot.Nodes, slot.U, slot.Tau, slot.Quantile, slot.Binding
	*slot = d
	slot.Seq = s.seq
	slot.Nodes = append(nodes[:0], d.Nodes...)
	slot.U = append(u[:0], d.U...)
	slot.Tau = append(tau[:0], d.Tau...)
	slot.Quantile = append(quantile[:0], d.Quantile...)
	slot.Binding = append(binding[:0], d.Binding...)
	seq := s.seq
	s.mu.Unlock()
	return seq
}

// clone deep-copies a slot so readers never alias the recycled slice
// buffers a later Record will overwrite.
func (d Decision) clone() Decision {
	d.Nodes = append([]int(nil), d.Nodes...)
	d.U = append([]float64(nil), d.U...)
	d.Tau = append([]float64(nil), d.Tau...)
	d.Quantile = append([]float64(nil), d.Quantile...)
	d.Binding = append([]string(nil), d.Binding...)
	return d
}

// Decisions returns the retained records, oldest first.
func (s *DecisionStore) Decisions() []Decision {
	_, out := s.snapshot(nil, Decision.clone)
	return out
}

// FilterTenant returns the retained records of one tenant and strategy
// (empty matches all) whose planned step range [Step, Step+Horizon)
// intersects [from, to]; to < 0 leaves the range open above.
func (s *DecisionStore) FilterTenant(tenant, strategy string, from, to int) []Decision {
	_, out := s.snapshot(decisionFilter(tenant, strategy, from, to), Decision.clone)
	return out
}

// decisionFilter returns the predicate FilterTenant applies.
func decisionFilter(tenant, strategy string, from, to int) func(*Decision) bool {
	return func(d *Decision) bool {
		return (tenant == "" || d.Tenant == tenant) && (strategy == "" || d.Strategy == strategy) &&
			d.Step+len(d.Nodes) > from && (to < 0 || d.Step <= to)
	}
}

// At returns the most recent decision whose round covers the given
// series step.
func (s *DecisionStore) At(step int) (Decision, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := s.count - 1; i >= 0; i-- {
		if d := s.at(i); d.Covers(step) {
			return d.clone(), true
		}
	}
	return Decision{}, false
}

// Latest returns the most recently recorded decision.
func (s *DecisionStore) Latest() (Decision, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return Decision{}, false
	}
	return s.at(s.count - 1).clone(), true
}

// Handler returns an http.Handler serving the store as JSON. Query
// parameters filter the records: ?strategy= matches the strategy name,
// ?tenant= matches the tenant label, ?from= and ?to= bound the planned
// step range.
func (s *DecisionStore) Handler() http.Handler {
	return getOnly("application/json", func(w io.Writer, q url.Values) error {
		from, to := 0, -1
		for _, p := range [...]struct {
			name string
			v    *int
		}{{"from", &from}, {"to", &to}} {
			if raw := q.Get(p.name); raw != "" {
				v, err := strconv.Atoi(raw)
				if err != nil {
					return badQuery{fmt.Errorf("bad %s: %w", p.name, err)}
				}
				*p.v = v
			}
		}
		stats, decisions := s.snapshot(decisionFilter(q.Get("tenant"), q.Get("strategy"), from, to), Decision.clone)
		return json.NewEncoder(w).Encode(struct {
			ringStats
			Decisions []Decision `json:"decisions"`
		}{stats, decisions})
	})
}
