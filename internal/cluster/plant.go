package cluster

import (
	"time"

	"robustscale/internal/chaos"
)

// The plants are what a control loop's apply stage actuates and grades
// against — the things that hold nodes: the plain integer allocation
// (AllocPlant), the scale-to-zero plant (ZeroPlant) and the warm-up-aware
// simulated cluster (ClusterPlant). Reset places a plant at a round
// boundary; ScaleTo is its raw scale action, which the loop wraps in its
// chaos, retry and breaker layers and hands back to Step as apply, an
// Actuator (a plant is one itself); Step
// drives target through apply, decides where that lands relative to the
// step's node failures and wake faults (f, read from the loop's round
// fault window), grades workload w against the capacity that actually
// served it, and writes what happened into the caller's StepResult.

// Actuator is a scale action: ScaleTo moves the allocation to n.
type Actuator interface{ ScaleTo(n int) error }

// StepResult is what one replayed step did to a plant.
type StepResult struct {
	// Target is what apply was asked for (after any floor the plant
	// imposes) and Err why the previous allocation held instead: retries
	// exhausted or the breaker open.
	Target int
	Err    error
	// Killed counts the nodes the step's failure event took, Nodes the
	// provisioned ones after the step.
	Killed, Nodes int
	// Utilization is workload per unit of serving capacity (zero with no
	// capacity); Violated whether the step breached the threshold.
	Utilization float64
	Violated    bool
	// Cost is the node-steps paid and Word what the step folds into the
	// loop's rolling allocation hash.
	Cost int64
	Word uint64
	// Wake carries the zero-boundary events; only Parked can be set
	// outside the scale-to-zero plant.
	Wake WakeOutcome
}

// AllocPlant is the plain integer allocation: scaling is instant, node
// failures strike after the step's scale action and are not replaced
// until the next one, and an empty allocation serves like one node.
type AllocPlant struct {
	// Theta is the per-node workload threshold steps are graded against.
	Theta float64
	alloc int
}

func (p *AllocPlant) Reset(_ time.Time, nodes int) error { p.alloc = nodes; return nil }
func (p *AllocPlant) ScaleTo(n int) error                { p.alloc = n; return nil }
func (p *AllocPlant) Size() int                          { return p.alloc }

// actuate is the part of the step the scale-to-zero plant shares.
func (p *AllocPlant) actuate(r *StepResult, apply Actuator, target, kills int) {
	r.Target, r.Err = target, apply.ScaleTo(target)
	r.Killed = min(kills, p.alloc)
	p.alloc -= r.Killed
	r.Nodes = p.alloc
}

func (p *AllocPlant) Step(r *StepResult, apply Actuator, target int, f chaos.StepFaults, w float64) {
	p.actuate(r, apply, target, f.Kills)
	r.Wake = WakeOutcome{}
	r.Utilization = w / float64(max(r.Nodes, 1))
	r.Violated = r.Utilization > p.Theta
	r.Cost = int64(r.Nodes)
	r.Word = uint64(uint(r.Nodes))
}

// ZeroPlant is the scale-to-zero plant: the integer allocation becomes
// the demanded capacity in base-node units, Serverless resolves it to a
// joint (count x size) decision under the step's wake faults, and the
// outcome — not the requested plan — is what gets graded, costed and
// hashed. A parked or still-cold step has zero capacity; it only counts
// as a violation when the workload was genuinely above IdleEps.
type ZeroPlant struct {
	AllocPlant
	Serverless *Serverless
	IdleEps    float64
}

func (p *ZeroPlant) Step(r *StepResult, apply Actuator, target int, f chaos.StepFaults, w float64) {
	p.actuate(r, apply, target, f.Kills)
	out := p.Serverless.Step(r.Nodes, WakeFault{StallSeconds: f.StallSeconds, Fail: f.WakeFail, Partial: f.PartialProvision})
	r.Wake = out
	r.Utilization, r.Violated = 0, w > p.IdleEps
	if out.CapacityUnits > 0 {
		r.Utilization = w / out.CapacityUnits
		r.Violated = r.Utilization > p.Theta
	}
	r.Cost = int64(out.CostUnits)
	r.Word = uint64(uint(out.Nodes*16 + out.Size))
}

// ClusterPlant is the simulated disaggregated database: node failures
// strike before the step's scale action, which launches replacements
// that serve only the warmed-up fraction of the step. The cluster keeps
// a one-node physical floor, so a parked step holds one node and reports
// the zero in Wake.Parked.
type ClusterPlant struct {
	// Config is the deployment shape, Theta the per-node threshold and
	// StepLen the replay step length.
	Config  Config
	Theta   float64
	StepLen time.Duration
	// Cluster is the simulated cluster, rebuilt by every Reset.
	*Cluster
}

func (p *ClusterPlant) Reset(at time.Time, nodes int) (err error) {
	p.Cluster, err = New(p.Config, at, nodes)
	return err
}

func (p *ClusterPlant) Step(r *StepResult, apply Actuator, target int, f chaos.StepFaults, w float64) {
	r.Killed, r.Wake = 0, WakeOutcome{}
	if f.Kills > 0 {
		r.Killed = p.Kill(f.Kills)
	}
	if target <= 0 {
		r.Wake.Parked = true
		target = 1
	}
	r.Target, r.Err = target, apply.ScaleTo(target)
	r.Nodes = p.Size()
	r.Utilization = w / p.EffectiveCapacity(p.StepLen)
	r.Violated = r.Utilization > p.Theta
	r.Cost = int64(r.Nodes)
	r.Word = uint64(uint(r.Nodes))
	p.Advance(p.StepLen)
}
