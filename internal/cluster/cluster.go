// Package cluster simulates a storage-disaggregated cloud database of the
// kind the paper targets (Figure 4): stateless compute nodes over shared
// storage, where scaling out means launching a node that rebuilds its
// in-memory components from checkpoints — a warm-up of seconds (Figure 5),
// negligible against 10-minute scaling intervals.
//
// The simulator runs in virtual time. It exists so auto-scaling strategies
// can be exercised end-to-end: allocations are applied step by step, warm-up
// delays reduce effective capacity, and per-step utilization against the
// scaling threshold is recorded.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"robustscale/internal/obs"
	"robustscale/internal/timeseries"
)

// ErrNegativeTarget is returned by ScaleTo for a negative node target —
// always a caller bug (an unclamped delta or a sign error), never a
// condition to hold through, so it is typed for errors.Is checks.
var ErrNegativeTarget = errors.New("cluster: negative scale target")

// Fleet-level counters on the process-wide registry; every simulated
// cluster feeds them, mirroring what a real control plane would emit.
var (
	obsScaleOuts = obs.Default.Counter(
		"robustscale_cluster_scale_outs_total",
		"Compute nodes launched by scale-out operations.")
	obsScaleIns = obs.Default.Counter(
		"robustscale_cluster_scale_ins_total",
		"Compute nodes retired by scale-in operations.")
	obsFailures = obs.Default.Counter(
		"robustscale_cluster_node_failures_total",
		"Compute nodes lost to injected failures.")
)

// Config describes the simulated database deployment.
type Config struct {
	// CheckpointMB is the size of the in-memory state a new compute node
	// loads from shared storage when it joins.
	CheckpointMB float64
	// LoadBandwidthMBps is the per-node storage read bandwidth during
	// warm-up.
	LoadBandwidthMBps float64
	// BaseWarmup is the fixed startup overhead (container launch, catalog
	// registration) independent of checkpoint size.
	BaseWarmup time.Duration
}

// DefaultConfig models the deployment behind Figure 5: a few GB of
// in-memory components loaded at high bandwidth, for warm-ups of a few
// seconds.
func DefaultConfig() Config {
	return Config{
		CheckpointMB:      2048,
		LoadBandwidthMBps: 1024,
		BaseWarmup:        2 * time.Second,
	}
}

// Node is one compute node of the simulated database.
type Node struct {
	// ID is a stable identifier.
	ID int
	// AddedAt is the virtual time the node was launched.
	AddedAt time.Time
	// ReadyAt is when its in-memory components finish loading.
	ReadyAt time.Time
}

// Ready reports whether the node serves traffic at time now.
func (n *Node) Ready(now time.Time) bool { return !now.Before(n.ReadyAt) }

// Cluster is the simulated compute fleet in virtual time.
type Cluster struct {
	cfg    Config
	now    time.Time
	nodes  []*Node
	nextID int

	// ScaleOuts and ScaleIns count scaling operations for thrashing
	// analysis; Failures counts nodes lost to injected failures.
	ScaleOuts, ScaleIns, Failures int
}

// New creates a cluster with the given initial size at virtual time start.
// Initial nodes are born ready.
func New(cfg Config, start time.Time, initial int) (*Cluster, error) {
	if cfg.CheckpointMB < 0 || cfg.LoadBandwidthMBps <= 0 {
		return nil, fmt.Errorf("cluster: invalid checkpoint %vMB / bandwidth %vMBps", cfg.CheckpointMB, cfg.LoadBandwidthMBps)
	}
	if initial < 1 {
		initial = 1
	}
	c := &Cluster{cfg: cfg, now: start}
	for i := 0; i < initial; i++ {
		c.nodes = append(c.nodes, &Node{ID: c.nextID, AddedAt: start, ReadyAt: start})
		c.nextID++
	}
	return c, nil
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Time { return c.now }

// Size returns the number of provisioned nodes, ready or warming.
func (c *Cluster) Size() int { return len(c.nodes) }

// ReadyCount returns the number of nodes currently serving.
func (c *Cluster) ReadyCount() int {
	ready := 0
	for _, n := range c.nodes {
		if n.Ready(c.now) {
			ready++
		}
	}
	return ready
}

// WarmupDuration returns how long a new node takes to become ready:
// checkpoint load time plus the fixed base overhead. This is the quantity
// Figure 5 plots against checkpoint size.
func (c *Cluster) WarmupDuration() time.Duration {
	load := time.Duration(c.cfg.CheckpointMB / c.cfg.LoadBandwidthMBps * float64(time.Second))
	return c.cfg.BaseWarmup + load
}

// ScaleTo adjusts the cluster to n nodes at the current virtual time. New
// nodes begin warming immediately; removed nodes leave at once (compute is
// stateless — their state lives in shared storage). The paper's premise is
// that this is the cheap operation disaggregation buys.
func (c *Cluster) ScaleTo(n int) error {
	if n < 0 {
		return fmt.Errorf("%w: %d nodes", ErrNegativeTarget, n)
	}
	if n < 1 {
		return fmt.Errorf("cluster: cannot scale to %d nodes", n)
	}
	for len(c.nodes) < n {
		c.nodes = append(c.nodes, &Node{
			ID:      c.nextID,
			AddedAt: c.now,
			ReadyAt: c.now.Add(c.WarmupDuration()),
		})
		c.nextID++
		c.ScaleOuts++
		obsScaleOuts.Inc()
	}
	if len(c.nodes) > n {
		// Retire the newest nodes first; they are the least warmed.
		c.ScaleIns += len(c.nodes) - n
		obsScaleIns.Add(float64(len(c.nodes) - n))
		c.nodes = c.nodes[:n]
	}
	return nil
}

// Advance moves virtual time forward.
func (c *Cluster) Advance(d time.Duration) {
	c.now = c.now.Add(d)
}

// Kill abruptly removes up to count nodes (oldest first), modeling node
// failures. Unlike a scale-in, the control plane did not ask for this:
// the next ScaleTo call will launch replacements, which must warm up.
// It returns how many nodes were actually killed (at least one node
// always survives, as a real placement group would enforce).
func (c *Cluster) Kill(count int) int {
	killed := 0
	for killed < count && len(c.nodes) > 1 {
		c.nodes = c.nodes[1:]
		killed++
	}
	c.Failures += killed
	obsFailures.Add(float64(killed))
	return killed
}

// EffectiveCapacity returns the average number of serving nodes over the
// interval [now, now+d): warming nodes contribute the fraction of the
// interval during which they are ready.
func (c *Cluster) EffectiveCapacity(d time.Duration) float64 {
	if d <= 0 {
		return float64(c.ReadyCount())
	}
	total := 0.0
	end := c.now.Add(d)
	for _, n := range c.nodes {
		switch {
		case !n.ReadyAt.After(c.now):
			total += 1
		case n.ReadyAt.Before(end):
			total += float64(end.Sub(n.ReadyAt)) / float64(d)
		}
	}
	return total
}

// StepStat records one simulation step.
type StepStat struct {
	Time      time.Time
	Workload  float64
	Allocated int
	// Capacity is the effective (warm-up-adjusted) node capacity.
	Capacity float64
	// Utilization is workload divided by capacity.
	Utilization float64
	// Violated reports whether utilization exceeded the threshold.
	Violated bool
}

// ReplayReport summarizes a Replay run.
type ReplayReport struct {
	Steps     []StepStat
	Violation int
	// ViolationRate is the fraction of steps whose threshold was
	// breached once warm-up is accounted for.
	ViolationRate float64
	ScaleOuts     int
	ScaleIns      int
}

// Replay drives the cluster with per-step allocations against the realized
// workload, judging utilization against theta. It is the end-to-end check
// that a plan that looks good on paper also works once warm-up is modeled.
// Node failures and control-plane faults strike in ClusterPlant.Step, the
// path a fleet tenant's apply stage runs.
func (c *Cluster) Replay(workload *timeseries.Series, allocations []int, theta float64) (*ReplayReport, error) {
	if workload.Len() != len(allocations) {
		return nil, fmt.Errorf("cluster: %d workload steps vs %d allocations", workload.Len(), len(allocations))
	}
	if theta <= 0 {
		return nil, fmt.Errorf("cluster: non-positive threshold %v", theta)
	}
	report := &ReplayReport{Steps: make([]StepStat, workload.Len())}
	for i := 0; i < workload.Len(); i++ {
		if err := c.ScaleTo(allocations[i]); err != nil {
			return nil, fmt.Errorf("cluster: step %d: %w", i, err)
		}
		capacity := c.EffectiveCapacity(workload.Step)
		if capacity < 1e-9 {
			capacity = 1e-9
		}
		w := workload.At(i)
		util := w / capacity
		stat := StepStat{
			Time:        c.now,
			Workload:    w,
			Allocated:   allocations[i],
			Capacity:    capacity,
			Utilization: util,
			Violated:    util > theta,
		}
		if stat.Violated {
			report.Violation++
		}
		report.Steps[i] = stat
		c.Advance(workload.Step)
	}
	report.ViolationRate = float64(report.Violation) / float64(len(report.Steps))
	report.ScaleOuts = c.ScaleOuts
	report.ScaleIns = c.ScaleIns
	return report, nil
}
