// Package ops provides the observability surface of the auto-scaler
// daemon: a thread-safe status registry updated by the control loop and
// an HTTP handler exposing it as JSON, so operators can watch a live
// deployment the way they would any production autoscaler.
package ops

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"robustscale/internal/obs"
)

// StageApply is the control-loop stage the daemon records around the
// cluster mutation, the one child of the stage histogram. A round's
// forecast and optimize stages are the tracer spans of internal/scaler,
// served on /trace.
const StageApply = "apply"

// stageSeconds is the control loop's per-stage latency histogram,
// registered on obs.Default.
var stageSeconds = obs.Default.HistogramVec(
	"robustscale_stage_duration_seconds",
	"Control-loop stage latency in seconds.",
	"stage", obs.LatencyBuckets)

var stageApply = stageSeconds.With(StageApply)

// ObserveApply records one apply-stage execution without a label lookup.
func ObserveApply(d time.Duration) { stageApply.Observe(d.Seconds()) }

// Status is a snapshot of the auto-scaler's state.
type Status struct {
	// Tenant is the tenant id this control loop plans for; a
	// single-tenant daemon reports obs.DefaultTenant. Always present in
	// the JSON so fleet tooling can key on it.
	Tenant string `json:"tenant"`
	// Strategy names the active scaling strategy.
	Strategy string `json:"strategy"`
	// Theta is the per-node workload threshold in effect.
	Theta float64 `json:"theta"`
	// VirtualTime is the simulation clock (wall clock for a live
	// deployment).
	VirtualTime time.Time `json:"virtual_time"`
	// Nodes is the current allocation.
	Nodes int `json:"nodes"`
	// Workload is the most recent observed workload.
	Workload float64 `json:"workload"`
	// Utilization is workload divided by capacity relative to theta.
	Utilization float64 `json:"utilization"`
	// Steps counts control-loop iterations so far.
	Steps int `json:"steps"`
	// Violations counts threshold breaches so far.
	Violations int `json:"violations"`
	// ScaleOuts and ScaleIns count scaling operations.
	ScaleOuts int `json:"scale_outs"`
	ScaleIns  int `json:"scale_ins"`
	// Plan is the remainder of the current scaling plan.
	Plan []int `json:"plan,omitempty"`
	// DegradationMode is the guard's current rung on the degradation
	// ladder ("normal", "repair", "last-known-good", "reactive").
	DegradationMode string `json:"degradation_mode,omitempty"`
	// DegradationReason says why the guard left normal mode.
	DegradationReason string `json:"degradation_reason,omitempty"`
	// DegradedRounds counts planning rounds that engaged any fallback.
	DegradedRounds int `json:"degraded_rounds,omitempty"`
	// ApplyHolds counts rounds that held the current allocation because
	// the apply path was unavailable.
	ApplyHolds int `json:"apply_holds,omitempty"`
	// WarmStart reports whether this process recovered its control-plane
	// state from a checkpoint instead of cold-starting. Always present in
	// the JSON so restart tooling can assert on it directly.
	WarmStart bool `json:"warm_start"`
	// CheckpointWrites counts snapshots this process has written to its
	// state directory (0 when durability is disabled).
	CheckpointWrites int `json:"checkpoint_writes,omitempty"`
	// Parked reports the serverless park verdict: the wake guard has
	// scaled this tenant's plan to zero. A daemon over a physical cluster
	// still holds the one-node floor while parked; the flag (not the node
	// count) is the authoritative zero-state signal.
	Parked bool `json:"parked,omitempty"`
	// KeepWarm reports that the wake breaker is open and the tenant is
	// pinned at the keep-warm floor instead of parking.
	KeepWarm bool `json:"keep_warm,omitempty"`
	// Parks and Wakes count zero-boundary crossings; ParkedSteps counts
	// replay steps spent parked. All zero outside serverless mode.
	Parks       int `json:"parks,omitempty"`
	Wakes       int `json:"wakes,omitempty"`
	ParkedSteps int `json:"parked_steps,omitempty"`
}

// Registry holds the latest status for concurrent readers.
type Registry struct {
	mu     sync.RWMutex
	status Status
}

// NewRegistry returns a registry pre-filled with the static fields and
// the default tenant id (override with Update for fleet members).
func NewRegistry(strategy string, theta float64) *Registry {
	return &Registry{status: Status{Tenant: obs.DefaultTenant, Strategy: strategy, Theta: theta}}
}

// Update replaces the dynamic fields of the status. The provided function
// mutates a copy under the registry lock, so partial updates are easy:
//
//	reg.Update(func(s *Status) { s.Nodes = 5 })
func (r *Registry) Update(f func(*Status)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(&r.status)
}

// Snapshot returns a copy of the current status.
func (r *Registry) Snapshot() Status {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.status
	s.Plan = append([]int(nil), r.status.Plan...)
	return s
}

// Handler returns an http.Handler serving the status as JSON at any path.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		snap := r.Snapshot()
		if err := json.NewEncoder(w).Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// MetricsHandler returns an http.Handler exposing the status as
// Prometheus text-format gauges under the `robustscale_` prefix, followed
// by every instrument registered on obs.Default (stage latencies,
// training counters, calibration gauges), so one /metrics endpoint covers
// the whole daemon.
func (r *Registry) MetricsHandler() http.Handler {
	return r.MetricsHandlerFor(obs.Default)
}

// MetricsHandlerFor is MetricsHandler against an explicit obs registry
// (nil appends nothing); tests use it to keep output deterministic.
func (r *Registry) MetricsHandlerFor(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		snap := r.Snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		var b strings.Builder
		gauge := func(name, help string, v float64) {
			fmt.Fprintf(&b, "# HELP robustscale_%s %s\n", name, help)
			fmt.Fprintf(&b, "# TYPE robustscale_%s gauge\n", name)
			fmt.Fprintf(&b, "robustscale_%s %g\n", name, v)
		}
		gauge("nodes", "Current node allocation.", float64(snap.Nodes))
		gauge("workload", "Most recent observed workload.", snap.Workload)
		gauge("utilization", "Workload relative to the threshold capacity.", snap.Utilization)
		gauge("steps_total", "Control loop iterations.", float64(snap.Steps))
		gauge("violations_total", "Threshold breaches observed.", float64(snap.Violations))
		gauge("scale_outs_total", "Scale-out operations performed.", float64(snap.ScaleOuts))
		gauge("scale_ins_total", "Scale-in operations performed.", float64(snap.ScaleIns))
		gauge("theta", "Per-node workload threshold in effect.", snap.Theta)
		if snap.Parks > 0 || snap.Wakes > 0 || snap.Parked {
			gauge("parked", "1 while the wake guard holds this tenant at zero.", b2f(snap.Parked))
			gauge("parks_total", "Park transitions to zero capacity.", float64(snap.Parks))
			gauge("wakes_total", "Wake transitions from zero capacity.", float64(snap.Wakes))
			gauge("parked_steps_total", "Replay steps spent parked at zero.", float64(snap.ParkedSteps))
		}
		if reg != nil {
			if err := reg.WritePrometheus(&b); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return
		}
	})
}
