// Serverless scaling model: idle-tenant scale-to-zero with a second
// vertical dimension (node size, not just count) and a cold-wake latency
// and cost penalty. Unlike the always-on Cluster — whose warm-up is
// seconds against 10-minute steps and therefore nearly free — a parked
// serverless tenant has *zero* capacity, and the dominant risk moves to
// the wake transition: a stalled, failed or partially-provisioned wake
// leaves real demand unserved for whole steps.
//
// Serverless is a deterministic per-step state machine ("the plant"): the
// control plane feeds it the admitted demand in base-node units plus any
// scheduled wake faults, and it answers with the capacity that actually
// materialized, the committed (count, size) decision, and the wake/park
// events the step produced. All state is plain values with gob Save/Load,
// so a kill-restart mid-wake resumes bit-identically.
package cluster

import (
	"fmt"
	"io"

	"robustscale/internal/optimize"
	"robustscale/internal/wire"
)

// DefaultNodeSizes is the vertical scaling ladder the serverless model
// optimizes over: bigger nodes are sublinear in cost, so consolidation
// pays at high demand while the idle floor stays cheap.
func DefaultNodeSizes() []optimize.NodeSize {
	return []optimize.NodeSize{
		{Name: "small", Capacity: 1, Cost: 2},
		{Name: "medium", Capacity: 2, Cost: 3},
		{Name: "large", Capacity: 4, Cost: 5},
	}
}

// ServerlessConfig parameterizes the plant.
type ServerlessConfig struct {
	// Sizes is the vertical ladder (DefaultNodeSizes when nil).
	Sizes []optimize.NodeSize
	// WakeSeconds is the fault-free cold-wake latency: checkpoint
	// restore plus proxy re-attach (the Orochi-style <60s budget).
	WakeSeconds float64
	// StepSeconds is the replay step length the plant resolves wakes
	// against.
	StepSeconds float64
	// WakeCost is the one-time cost (in node-step units) charged per
	// completed wake — the provisioning churn scale-to-zero pays for.
	WakeCost float64
}

// Validate reports configuration errors.
func (cfg ServerlessConfig) Validate() error {
	if err := optimize.ValidateSizes(cfg.Sizes); err != nil {
		return err
	}
	if len(cfg.Sizes) > 16 {
		return fmt.Errorf("cluster: node-size ladder of %d rungs exceeds 16", len(cfg.Sizes))
	}
	if cfg.WakeSeconds < 0 {
		return fmt.Errorf("cluster: negative wake latency %v", cfg.WakeSeconds)
	}
	if cfg.StepSeconds <= 0 {
		return fmt.Errorf("cluster: non-positive step length %v", cfg.StepSeconds)
	}
	if cfg.WakeCost < 0 {
		return fmt.Errorf("cluster: negative wake cost %v", cfg.WakeCost)
	}
	return nil
}

// WakeFault is the chaos input of one plant step.
type WakeFault struct {
	// StallSeconds stretches an in-flight wake (WakeStall).
	StallSeconds float64
	// Fail aborts the in-flight wake attempt (WakeFail).
	Fail bool
	// Partial grants only half of a requested wake or scale-up fleet
	// (PartialProvision).
	Partial bool
}

// WakeOutcome is what one plant step actually delivered.
type WakeOutcome struct {
	// Nodes and Size are the committed allocation after the step.
	Nodes, Size int
	// CapacityUnits is the effective capacity in base-node units over
	// the step (fractional on the step a wake completes mid-way).
	CapacityUnits float64
	// CostUnits is the node-step cost incurred, including the wake
	// penalty on completion. Integral by construction with integral
	// size costs.
	CostUnits float64
	// Transition events of this step.
	WakeStarted, WakeCompleted, WakeFailed, Stalled, PartialApplied bool
	// Parked reports zero committed capacity with no wake in flight.
	Parked bool
	// WakeLatencySeconds is the wall (virtual) latency from the first
	// demanded step to serving capacity; set when WakeCompleted.
	WakeLatencySeconds float64
}

// Serverless is the per-tenant plant. Not safe for concurrent use; the
// fleet controller drives each tenant's plant from its own apply phase.
type Serverless struct {
	cfg ServerlessConfig

	nodes int
	size  int
	// Wake-in-flight state: elapsed accumulates the whole wake sequence
	// (including failed attempts) for latency accounting; remain is the
	// seconds left in the current attempt.
	waking      bool
	wakeRemain  float64
	wakeElapsed float64

	// Lifetime counters (exported via accessors, persisted).
	wakes     int64
	wakeFails int64
	parks     int64
	partials  int64
}

// NewServerless builds a plant starting parked at zero.
func NewServerless(cfg ServerlessConfig) (*Serverless, error) {
	if cfg.Sizes == nil {
		cfg.Sizes = DefaultNodeSizes()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Serverless{cfg: cfg}, nil
}

// Parked reports zero capacity with no wake in flight.
func (s *Serverless) Parked() bool { return s.nodes == 0 && !s.waking }

// Waking reports a wake-from-zero in flight.
func (s *Serverless) Waking() bool { return s.waking }

// Nodes returns the committed node count.
func (s *Serverless) Nodes() int { return s.nodes }

// Wakes, WakeFails, Parks and Partials are lifetime event counters.
func (s *Serverless) Wakes() int64     { return s.wakes }
func (s *Serverless) WakeFails() int64 { return s.wakeFails }
func (s *Serverless) Parks() int64     { return s.parks }
func (s *Serverless) Partials() int64  { return s.partials }

// Step advances the plant one replay step against the admitted demand
// (base-node units) and the step's scheduled faults, returning what
// actually materialized. Demand <= 0 parks the tenant (and aborts any
// wake in flight — the flash crowd evaporated before capacity arrived).
func (s *Serverless) Step(demandUnits int, f WakeFault) WakeOutcome {
	var out WakeOutcome
	if demandUnits <= 0 {
		if s.nodes > 0 || s.waking {
			s.parks++
		}
		s.nodes, s.size = 0, 0
		s.waking, s.wakeRemain, s.wakeElapsed = false, 0, 0
		out.Parked = true
		return out
	}

	target, err := optimize.SizeDemand(demandUnits, s.cfg.Sizes)
	if err != nil || target.Count < 1 {
		// Unreachable with a validated config; park defensively.
		out.Parked = s.Parked()
		return out
	}

	if s.nodes == 0 {
		// Wake-from-zero: resolve the cold-start latency against the
		// step, under any scheduled stall or failure.
		if !s.waking {
			s.waking = true
			s.wakeElapsed = 0
			s.wakeRemain = s.cfg.WakeSeconds
			s.wakes++
			out.WakeStarted = true
		}
		if f.StallSeconds > 0 {
			s.wakeRemain += f.StallSeconds
			out.Stalled = true
		}
		if f.Fail {
			// The provisioning attempt dies; the whole step is lost and
			// the next demanded step restarts the attempt from scratch.
			s.wakeFails++
			out.WakeFailed = true
			s.wakeElapsed += s.cfg.StepSeconds
			s.wakeRemain = s.cfg.WakeSeconds
			return out
		}
		if s.wakeRemain >= s.cfg.StepSeconds {
			// Still cold for the whole step.
			s.wakeRemain -= s.cfg.StepSeconds
			s.wakeElapsed += s.cfg.StepSeconds
			return out
		}
		// The wake completes within this step: capacity serves the
		// remaining fraction.
		frac := s.wakeRemain / s.cfg.StepSeconds
		s.wakeElapsed += s.wakeRemain
		out.WakeCompleted = true
		out.WakeLatencySeconds = s.wakeElapsed
		s.waking, s.wakeRemain, s.wakeElapsed = false, 0, 0
		s.nodes, s.size = target.Count, target.Size
		if f.Partial && s.nodes > 1 {
			s.nodes = (s.nodes + 1) / 2
			s.partials++
			out.PartialApplied = true
		}
		capUnits := float64(s.nodes) * s.cfg.Sizes[s.size].Capacity
		out.Nodes, out.Size = s.nodes, s.size
		out.CapacityUnits = capUnits * (1 - frac)
		out.CostUnits = float64(s.nodes)*s.cfg.Sizes[s.size].Cost + s.cfg.WakeCost
		return out
	}

	// Active resize: stateless compute re-shapes instantly (the paper's
	// disaggregation premise), but a scale-up can be partially
	// provisioned — half the requested fleet arrives this step and the
	// next fault-free step completes it.
	prevUnits := float64(s.nodes) * s.cfg.Sizes[s.size].Capacity
	s.nodes, s.size = target.Count, target.Size
	if f.Partial {
		newUnits := float64(s.nodes) * s.cfg.Sizes[s.size].Capacity
		if newUnits > prevUnits && s.nodes > 1 {
			s.nodes = (s.nodes + 1) / 2
			s.partials++
			out.PartialApplied = true
		}
	}
	out.Nodes, out.Size = s.nodes, s.size
	out.CapacityUnits = float64(s.nodes) * s.cfg.Sizes[s.size].Capacity
	out.CostUnits = float64(s.nodes) * s.cfg.Sizes[s.size].Cost
	return out
}

// Save snapshots the plant; Load restores it. Configuration is not
// persisted — the owner rebuilds the plant from its (fingerprinted)
// config and restores only the mutable state, the same contract every
// other component's Save/Load follows.
func (s *Serverless) Save(w io.Writer) error {
	b := wire.AppendVarints(wire.Scratch(w), int64(s.nodes), int64(s.size))
	b = wire.AppendBool(b, s.waking)
	b = wire.AppendFloat(b, s.wakeRemain)
	b = wire.AppendFloat(b, s.wakeElapsed)
	_, err := w.Write(wire.AppendVarints(b, s.wakes, s.wakeFails, s.parks, s.partials))
	return err
}

// Load restores a snapshot written by Save.
func (s *Serverless) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	nodes, size, waking := rd.Int(), rd.Int(), rd.Bool()
	wakeRemain, wakeElapsed := rd.Float(), rd.Float()
	wakes, wakeFails, parks, partials := rd.Varint(), rd.Varint(), rd.Varint(), rd.Varint()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("cluster: loading serverless state: %w", err)
	}
	if nodes < 0 || size < 0 || size >= len(s.cfg.Sizes) || wakeRemain < 0 {
		return fmt.Errorf("cluster: serverless snapshot out of range (%d nodes, size %d)", nodes, size)
	}
	s.nodes, s.size = nodes, size
	s.waking, s.wakeRemain, s.wakeElapsed = waking, wakeRemain, wakeElapsed
	s.wakes, s.wakeFails, s.parks, s.partials = wakes, wakeFails, parks, partials
	return nil
}
