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
// chaos, retry and breaker layers and hands back to Step as apply; Step
// drives target through apply, decides where that lands relative to the
// step's node failures, and grades workload w against the capacity that
// actually served it.

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
func (p *AllocPlant) actuate(apply func(int) error, target, kills int) StepResult {
	r := StepResult{Target: target, Err: apply(target)}
	if r.Killed = kills; r.Killed > p.alloc {
		r.Killed = p.alloc
	}
	p.alloc -= r.Killed
	r.Nodes = p.alloc
	return r
}

func (p *AllocPlant) Step(apply func(int) error, _, target, kills int, w float64) StepResult {
	r := p.actuate(apply, target, kills)
	r.Utilization = w / float64(max(r.Nodes, 1))
	r.Violated = r.Utilization > p.Theta
	r.Cost = int64(r.Nodes)
	r.Word = uint64(uint(r.Nodes))
	return r
}

// ZeroPlant is the scale-to-zero plant: the integer allocation becomes
// the demanded capacity in base-node units, Serverless resolves it to a
// joint (count x size) decision under any scheduled wake faults, and the
// outcome — not the requested plan — is what gets graded, costed and
// hashed. A parked or still-cold step has zero capacity; it only counts
// as a violation when the workload was genuinely above IdleEps.
type ZeroPlant struct {
	AllocPlant
	Serverless *Serverless
	// Sched supplies the wake faults; nil means none.
	Sched   *chaos.Schedule
	IdleEps float64
}

func (p *ZeroPlant) Step(apply func(int) error, step, target, kills int, w float64) StepResult {
	r := p.actuate(apply, target, kills)
	var f WakeFault
	if p.Sched != nil {
		f.StallSeconds = p.Sched.WakeStallAt(step)
		f.Fail = p.Sched.WakeFailAt(step)
		f.Partial = p.Sched.PartialProvisionAt(step)
	}
	out := p.Serverless.Step(r.Nodes, f)
	r.Wake = out
	r.Violated = w > p.IdleEps
	if out.CapacityUnits > 0 {
		r.Utilization = w / out.CapacityUnits
		r.Violated = r.Utilization > p.Theta
	}
	r.Cost = int64(out.CostUnits)
	r.Word = uint64(uint(out.Nodes*16 + out.Size))
	return r
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

func (p *ClusterPlant) Step(apply func(int) error, _, target, kills int, w float64) StepResult {
	r := StepResult{Target: target}
	if kills > 0 {
		r.Killed = p.Kill(kills)
	}
	if target <= 0 {
		r.Wake.Parked = true
		r.Target = 1
	}
	r.Err = apply(r.Target)
	r.Nodes = p.Size()
	r.Utilization = w / p.EffectiveCapacity(p.StepLen)
	r.Violated = r.Utilization > p.Theta
	r.Cost = int64(r.Nodes)
	r.Word = uint64(uint(r.Nodes))
	p.Advance(p.StepLen)
	return r
}
