package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"robustscale/internal/chaos"
	"robustscale/internal/cluster"
	"robustscale/internal/fleet"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
)

// ResilienceRow is one (fault profile, strategy) cell of the resilience
// matrix: the guarded control loop's outcome under injected faults, with
// deltas against the same strategy's fault-free run.
type ResilienceRow struct {
	Profile  string `json:"profile"`
	Strategy string `json:"strategy"`
	// ViolationRate is the fraction of steps whose utilization breached
	// theta once warm-up and faults are modeled.
	ViolationRate float64 `json:"violation_rate"`
	// AvgNodes is the mean fleet size, the cost proxy.
	AvgNodes float64 `json:"avg_nodes"`
	// ViolationDelta and CostDelta are this cell minus the strategy's
	// fault-free baseline.
	ViolationDelta float64 `json:"violation_delta"`
	CostDelta      float64 `json:"cost_delta"`
	// DegradedRounds counts planning rounds the guard spent off the
	// normal rung; Holds counts steps that kept the previous fleet size
	// because the apply path failed.
	DegradedRounds int `json:"degraded_rounds"`
	Holds          int `json:"holds"`
	// Failures is how many nodes the schedule killed.
	Failures int `json:"failures"`
}

// ResilienceReport is the full matrix plus the aggregate evidence
// TestResilienceSmoke asserts on: faults fired, fallbacks engaged, applies
// held, and degraded decision records captured.
type ResilienceReport struct {
	Profile string          `json:"profile"`
	Rows    []ResilienceRow `json:"rows"`
	// FaultsInjected counts the chaos injections of this sweep (nonzero
	// iff faults actually fired).
	FaultsInjected float64 `json:"faults_injected"`
	// DegradedRoundsTotal and HoldsTotal aggregate the matrix columns.
	DegradedRoundsTotal int `json:"degraded_rounds_total"`
	HoldsTotal          int `json:"holds_total"`
	// DegradedDecisions counts retained decision records annotated with a
	// degradation mode.
	DegradedDecisions int `json:"degraded_decisions"`
}

// resilienceSpec is one strategy column of the matrix. Strategies are
// rebuilt per cell so chaos wrappers and guard state never leak between
// cells; the forecaster-backed ones use the training-free seasonal-naive
// model, keeping the matrix fast enough for CI.
type resilienceSpec struct {
	name    string
	horizon int
	build   func(theta float64, wrap func(forecast.QuantileForecaster) forecast.QuantileForecaster) (scaler.Strategy, error)
}

func resilienceSpecs(d *Dataset, horizon int) []resilienceSpec {
	season := 144 // one day at 10-minute steps
	newSeasonal := func() (forecast.QuantileForecaster, error) {
		m := forecast.NewSeasonalNaive(season)
		if err := m.Fit(d.Train()); err != nil {
			return nil, err
		}
		return m, nil
	}
	return []resilienceSpec{
		{
			name: "reactive-max", horizon: 1,
			build: func(theta float64, _ func(forecast.QuantileForecaster) forecast.QuantileForecaster) (scaler.Strategy, error) {
				return &scaler.ReactiveMax{Window: 6, Theta: theta}, nil
			},
		},
		{
			name: "robust-0.9", horizon: horizon,
			build: func(theta float64, wrap func(forecast.QuantileForecaster) forecast.QuantileForecaster) (scaler.Strategy, error) {
				qf, err := newSeasonal()
				if err != nil {
					return nil, err
				}
				return &scaler.Robust{Forecaster: wrap(qf), Tau: 0.9, Theta: theta}, nil
			},
		},
		{
			name: "predictive", horizon: horizon,
			build: func(theta float64, wrap func(forecast.QuantileForecaster) forecast.QuantileForecaster) (scaler.Strategy, error) {
				qf, err := newSeasonal()
				if err != nil {
					return nil, err
				}
				return &scaler.Predictive{Forecaster: wrap(qf), Theta: theta}, nil
			},
		},
	}
}

// ResilienceProfiles are the fault-class rows of the matrix, each a
// preset restricted to one boundary, plus the all-class storm.
var ResilienceProfiles = []string{"forecast", "telemetry", "apply", "node-kill", "all"}

// Resilience runs the resilience matrix on one dataset: every fault-class
// profile against every guarded strategy, reporting violation-rate and
// cost deltas versus each strategy's fault-free baseline. The profile
// argument selects a single preset ("smoke" for CI, one of the class
// presets for focused runs) or "matrix" for the full sweep.
func Resilience(z *Zoo, ds DatasetName, profile string) (*ResilienceReport, error) {
	d, err := z.Dataset(ds)
	if err != nil {
		return nil, err
	}
	cfg := z.Config()
	profiles := []string{profile}
	if profile == "matrix" {
		profiles = ResilienceProfiles
	}
	report := &ResilienceReport{Profile: profile}
	faults0 := chaos.InjectedTotal()
	for _, spec := range resilienceSpecs(d, cfg.Horizon) {
		base, err := runResilienceCell(d, cfg, spec, chaos.Profile{Name: "none"})
		if err != nil {
			return nil, fmt.Errorf("experiment: resilience baseline %s: %w", spec.name, err)
		}
		for _, name := range profiles {
			p, err := chaos.Preset(name)
			if err != nil {
				return nil, err
			}
			p.Seed = cfg.Seed
			cell, err := runResilienceCell(d, cfg, spec, p)
			if err != nil {
				return nil, fmt.Errorf("experiment: resilience %s/%s: %w", name, spec.name, err)
			}
			cell.ViolationDelta = cell.ViolationRate - base.ViolationRate
			cell.CostDelta = cell.AvgNodes - base.AvgNodes
			report.Rows = append(report.Rows, cell)
			report.DegradedRoundsTotal += cell.DegradedRounds
			report.HoldsTotal += cell.Holds
		}
	}
	report.FaultsInjected = chaos.InjectedTotal() - faults0
	for _, dec := range obs.DefaultDecisions.Decisions() {
		if dec.Degraded != "" {
			report.DegradedDecisions++
		}
	}
	return report, nil
}

// runResilienceCell grades the deployed control loop, not a model of it:
// one fleet.Tenant on the warm-up-aware simulated cluster, guarded with
// the fleet's defaults, replaying the evaluation span in whole rounds
// under the profile's schedule. The row is read back from the tenant's
// own counters.
func runResilienceCell(d *Dataset, cfg Config, spec resilienceSpec, prof chaos.Profile) (ResilienceRow, error) {
	row := ResilienceRow{Profile: prof.Name, Strategy: spec.name}
	prof.Steps = d.Series.Len() - d.EvalStart
	sched, err := prof.Build()
	if err != nil {
		return row, err
	}
	plant := &cluster.ClusterPlant{Config: cluster.DefaultConfig(), Theta: cfg.Theta, StepLen: d.Series.Step}
	t := &fleet.Tenant{
		ID:     obs.DefaultTenant,
		Series: d.Series, TrainEnd: d.EvalStart, Horizon: spec.horizon,
		Fingerprint: persist.Fingerprint{Strategy: spec.name, Theta: cfg.Theta, Horizon: spec.horizon},
		GuardConfig: scaler.GuardConfig{Theta: cfg.Theta, Tau: 0.9},
		Breaker:     scaler.Breaker{Cooldown: 3},
		Sched:       sched,
		Plant:       plant,
	}
	t.Build = func(*fleet.Tenant, []byte, float64) (scaler.Strategy, forecast.Snapshotter, float64, error) {
		strat, err := spec.build(cfg.Theta, t.Faulty)
		return strat, nil, 0, err
	}
	if _, err := t.Start(); err != nil {
		return row, err
	}
	for t.Active() {
		// A planning error past the guard's ladder holds the round; the
		// tenant counts it.
		_ = t.Plan()
		if err := t.Apply(); err != nil {
			return row, err
		}
	}
	tot := t.Totals()
	row.ViolationRate = float64(tot.Violations) / float64(tot.Steps)
	row.AvgNodes = float64(tot.Cost) / float64(tot.Steps)
	row.DegradedRounds = t.Guard().DegradedRounds()
	row.Holds = tot.Holds
	row.Failures = plant.Failures
	return row, nil
}

// RenderResilience writes the matrix as a table.
func RenderResilience(w io.Writer, rep *ResilienceReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "profile\tstrategy\tviolation\tΔviolation\tavg nodes\tΔcost\tdegraded\tholds\tkilled")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%+.4f\t%.2f\t%+.2f\t%d\t%d\t%d\n",
			r.Profile, r.Strategy, r.ViolationRate, r.ViolationDelta,
			r.AvgNodes, r.CostDelta, r.DegradedRounds, r.Holds, r.Failures)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "faults injected: %.0f, degraded rounds: %d, holds: %d, degraded decisions: %d\n",
		rep.FaultsInjected, rep.DegradedRoundsTotal, rep.HoldsTotal, rep.DegradedDecisions)
	return err
}

// WriteResilienceJSON writes the report for machine consumption.
func WriteResilienceJSON(w io.Writer, rep *ResilienceReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
