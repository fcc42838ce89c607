package fleet

import (
	"context"
	"fmt"
)

// runOnce builds and runs a fleet to completion.
func runOnce(cfg Config) (*Report, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background())
}

// BlastRadius quantifies cross-tenant fault isolation: compare a chaos
// run against its fault-free baseline and count how many *bystander*
// tenants (those the fault schedule does not target) drifted outside
// the tolerance. A well-isolated fleet keeps the radius near zero —
// faults stay with the tenants they strike.
type BlastRadius struct {
	// Faulted counts tenants the chaos schedule targets.
	Faulted int `json:"faulted"`
	// Bystanders counts tenants with no scheduled faults.
	Bystanders int `json:"bystanders"`
	// Affected counts bystanders whose violations or cost drifted beyond
	// tolerance versus the baseline run.
	Affected int `json:"affected"`
	// Radius is Affected/Bystanders (0 when there are no bystanders).
	Radius float64 `json:"radius"`
	// AffectedIDs lists the drifted bystanders (capped for readability).
	AffectedIDs []string `json:"affected_ids,omitempty"`
}

// Tolerances for bystander drift; a bystander is "affected" when its
// violation count moves by more than violTol or its cost by more than
// costTol as a fraction of the baseline cost.
const (
	violTol        = 0
	costTol        = 0.01
	maxAffectedIDs = 16
)

// MeasureBlastRadius compares a chaos run against its fault-free
// baseline. Both reports must carry PerTenant records from the same
// fleet shape (same tenants in the same order); faulted-tenant identity
// comes from the chaos report's Faulted flags.
func MeasureBlastRadius(baseline, faulted *Report) (BlastRadius, error) {
	var br BlastRadius
	if baseline == nil || faulted == nil {
		return br, fmt.Errorf("fleet: blast radius needs both reports")
	}
	if len(baseline.PerTenant) == 0 || len(faulted.PerTenant) == 0 {
		return br, fmt.Errorf("fleet: blast radius needs per-tenant records (set Config.PerTenant)")
	}
	if len(baseline.PerTenant) != len(faulted.PerTenant) {
		return br, fmt.Errorf("fleet: tenant count mismatch %d vs %d",
			len(baseline.PerTenant), len(faulted.PerTenant))
	}
	for i := range faulted.PerTenant {
		ft := faulted.PerTenant[i]
		bt := baseline.PerTenant[i]
		if ft.ID != bt.ID {
			return br, fmt.Errorf("fleet: tenant order mismatch at %d: %s vs %s", i, ft.ID, bt.ID)
		}
		if ft.Faulted {
			br.Faulted++
			continue
		}
		br.Bystanders++
		violDelta := ft.Violations - bt.Violations
		if violDelta < 0 {
			violDelta = -violDelta
		}
		costDelta := float64(ft.CostNodeSteps - bt.CostNodeSteps)
		if costDelta < 0 {
			costDelta = -costDelta
		}
		costBase := float64(bt.CostNodeSteps)
		if costBase < 1 {
			costBase = 1
		}
		if violDelta > violTol || costDelta/costBase > costTol {
			br.Affected++
			if len(br.AffectedIDs) < maxAffectedIDs {
				br.AffectedIDs = append(br.AffectedIDs, ft.ID)
			}
		}
	}
	if br.Bystanders > 0 {
		br.Radius = float64(br.Affected) / float64(br.Bystanders)
	}
	return br, nil
}

// MatrixCell is one row of the fleet resilience matrix: a chaos preset
// and the fleet-level outcome it produced, with blast radius measured
// against the fault-free baseline.
type MatrixCell struct {
	Preset        string      `json:"preset"`
	Violations    int64       `json:"violations"`
	ViolationRate float64     `json:"violation_rate"`
	CostNodeSteps int64       `json:"cost_node_steps"`
	Holds         int64       `json:"holds"`
	ShedNodes     int64       `json:"shed_nodes,omitempty"`
	Quarantines   int         `json:"quarantines,omitempty"`
	FleetHash     string      `json:"fleet_hash"`
	BlastRadius   BlastRadius `json:"blast_radius"`
	// Wake-fault accounting (serverless fleets only): failed wakes, the
	// observed p99 wake latency and whether the wake-latency SLO held.
	WakeFailures   int64   `json:"wake_failures,omitempty"`
	WakeP99Seconds float64 `json:"wake_p99_seconds,omitempty"`
	WakeSLOMet     bool    `json:"wake_slo_met,omitempty"`
}

// ResilienceMatrix runs the fleet once fault-free and once per chaos
// preset, reporting blast radius and degradation per row. Every run is
// built from the same base configuration, so rows differ only in the
// fault schedule. The baseline report is returned alongside the rows.
func ResilienceMatrix(cfg Config, presets []string) (*Report, []MatrixCell, error) {
	base := cfg
	base.Chaos = ""
	base.PerTenant = true
	baseline, err := runOnce(base)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: baseline run: %w", err)
	}
	cells := make([]MatrixCell, 0, len(presets))
	for _, preset := range presets {
		pc := cfg
		pc.Chaos = preset
		pc.PerTenant = true
		rep, err := runOnce(pc)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: chaos run %q: %w", preset, err)
		}
		br, err := MeasureBlastRadius(baseline, rep)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: chaos run %q: %w", preset, err)
		}
		cell := MatrixCell{
			Preset:        preset,
			Violations:    rep.Violations,
			ViolationRate: rep.ViolationRate,
			CostNodeSteps: rep.CostNodeSteps,
			Holds:         rep.Holds,
			FleetHash:     rep.FleetHash,
			BlastRadius:   br,
		}
		if rep.Pool != nil {
			cell.ShedNodes = rep.Pool.ShedNodes
			cell.Quarantines = rep.Pool.Quarantines
		}
		if rep.Serverless != nil {
			cell.WakeFailures = rep.Serverless.WakeFailures
			cell.WakeP99Seconds = rep.Serverless.WakeP99Seconds
			cell.WakeSLOMet = rep.Serverless.WakeSLOMet
		}
		cells = append(cells, cell)
	}
	return baseline, cells, nil
}
