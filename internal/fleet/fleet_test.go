package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"robustscale/internal/obs"
	"robustscale/internal/persist"
)

// testConfig is a small fleet that still exercises both archetypes and
// multiple rounds: 8 tenants, one replay day (12 rounds of 12 steps).
func testConfig(tenants int) Config {
	cfg := DefaultConfig(tenants)
	cfg.Days = 3
	return cfg
}

func runFleet(t *testing.T, cfg Config) *Report {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSeedDerivation(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := deriveSeed(42, i)
		if s < 0 {
			t.Fatalf("deriveSeed(42, %d) = %d, want non-negative", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between tenants %d and %d", prev, i)
		}
		seen[s] = i
	}
	if deriveSeed(42, 7) != deriveSeed(42, 7) {
		t.Error("derivation not deterministic")
	}
	if deriveSeed(42, 7) == deriveSeed(43, 7) {
		t.Error("master seed ignored")
	}
}

func TestTenantIDsAreValidNamespaces(t *testing.T) {
	for _, i := range []int{0, 7, 999, 9999, 99999} {
		if err := persist.ValidTenantID(TenantID(i)); err != nil {
			t.Errorf("TenantID(%d): %v", i, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Tenants = 0 },
		func(c *Config) { c.Days = c.TrainDays },
		func(c *Config) { c.Units = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Horizon = 10000 },
		func(c *Config) { c.Theta = 0 },
		func(c *Config) { c.Tau = 1.5 },
		func(c *Config) { c.Tau = math.NaN() },
		func(c *Config) { c.Strategy = "nope" },
		func(c *Config) { c.Forecaster = "nope" },
		func(c *Config) { c.Forecaster = "qmlp" },
		func(c *Config) { c.Forecaster = ForecasterSeasonalNaive; c.TrainDays = 1; c.Days = 3 },
		func(c *Config) { c.StateDir = "x"; c.CheckpointInterval = 0 },
		func(c *Config) { c.SLOTarget = -0.1 },
		func(c *Config) { c.Strategy, c.Tau, c.Tau2 = StrategyAdaptive, 0.95, 0.9 },
		func(c *Config) { c.Strategy, c.Tau2 = StrategyAdaptive, 1 },
		// The zeros New used to replace with defaults.
		func(c *Config) { c.SLOWindow = 0 },
		func(c *Config) { c.Zones = 0 },
		func(c *Config) { c.StateDir = "x"; c.Retain = 0 },
		func(c *Config) { c.Serverless = true; c.WakeSLOSeconds = 0 },
		func(c *Config) { c.PoolNodes = -5 },
		func(c *Config) { c.Chaos = "bogus" },
	}
	for i, mutate := range cases {
		cfg := testConfig(2)
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: invalid config accepted or refused untyped: %v", i, err)
		}
	}
	cfg := testConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestWorkerCountDeterminism is the package's core contract: the fleet
// hash — and every per-tenant record behind it — must be bit-identical
// for any worker count.
func TestWorkerCountDeterminism(t *testing.T) {
	var base *Report
	for _, workers := range []int{1, 4, 7} {
		cfg := testConfig(8)
		cfg.Workers = workers
		rep := runFleet(t, cfg)
		if rep.Steps == 0 || rep.Rounds == 0 {
			t.Fatalf("workers=%d: empty run (%d steps, %d rounds)", workers, rep.Steps, rep.Rounds)
		}
		if base == nil {
			base = rep
			continue
		}
		if rep.FleetHash != base.FleetHash {
			t.Errorf("workers=%d: fleet hash %s != %s", workers, rep.FleetHash, base.FleetHash)
		}
		if len(rep.PerTenant) != len(base.PerTenant) {
			t.Fatalf("workers=%d: %d tenant records, want %d", workers, len(rep.PerTenant), len(base.PerTenant))
		}
		for i, tr := range rep.PerTenant {
			want := base.PerTenant[i]
			if tr.AllocHash != want.AllocHash || tr.Violations != want.Violations ||
				tr.CostNodeSteps != want.CostNodeSteps || tr.Steps != want.Steps {
				t.Errorf("workers=%d: tenant %s diverged: %+v vs %+v", workers, tr.ID, tr, want)
			}
		}
	}
}

// TestRunRepeatability pins that two identical runs in one process agree
// exactly (no hidden global state leaking between fleets).
func TestRunRepeatability(t *testing.T) {
	a := runFleet(t, testConfig(6))
	b := runFleet(t, testConfig(6))
	if a.FleetHash != b.FleetHash {
		t.Errorf("same config, different hashes: %s vs %s", a.FleetHash, b.FleetHash)
	}
}

// TestStrategiesAndForecasters smoke-runs every supported combination on
// a tiny fleet.
func TestStrategiesAndForecasters(t *testing.T) {
	combos := []struct{ strategy, forecaster string }{
		{StrategyRobust, ForecasterNaive},
		{StrategyAdaptive, ForecasterSeasonalNaive},
		{StrategyReactiveMax, ForecasterSeasonalNaive},
	}
	for _, combo := range combos {
		cfg := testConfig(2)
		cfg.Strategy = combo.strategy
		cfg.Forecaster = combo.forecaster
		rep := runFleet(t, cfg)
		if rep.Steps == 0 {
			t.Errorf("%s/%s: no steps replayed", combo.strategy, combo.forecaster)
		}
	}
}

// TestDecisionRecordsCarryTenant: with capture enabled, each fleet round
// lands a decision record stamped with its tenant's id.
func TestDecisionRecordsCarryTenant(t *testing.T) {
	obs.DefaultDecisions.SetEnabled(true)
	obs.DefaultDecisions.Reset()
	defer func() {
		obs.DefaultDecisions.SetEnabled(false)
		obs.DefaultDecisions.Reset()
	}()
	cfg := testConfig(3)
	cfg.Workers = 1
	rep := runFleet(t, cfg)
	for i := 0; i < cfg.Tenants; i++ {
		id := TenantID(i)
		ds := obs.DefaultDecisions.FilterTenant(id, "", 0, -1)
		if len(ds) == 0 {
			t.Errorf("no decisions recorded for %s", id)
		}
	}
	if rep.DecisionsTotal == 0 {
		t.Error("report says no decisions captured")
	}
}

// TestFleetMetricsTenantLabelled: the Prometheus dump carries the
// per-tenant counter families with tenant labels, one rounds series per
// tenant that counts the fleet's rounds. The registry is process-wide and
// keeps earlier tests' series, so the count is of what the run moved.
func TestFleetMetricsTenantLabelled(t *testing.T) {
	before := tenantRoundSeries(t)
	rep := runFleet(t, testConfig(3))
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	for _, want := range []string{
		`robustscale_fleet_tenant_rounds_total{tenant="t00000"}`,
		`robustscale_fleet_tenant_rounds_total{tenant="t00002"}`,
		"robustscale_fleet_tenants",
		"robustscale_fleet_rounds_total",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
	after := tenantRoundSeries(t)
	for tenant, v := range after {
		rose := v - before[tenant]
		if ours := tenant == TenantID(0) || tenant == TenantID(1) || tenant == TenantID(2); ours && rose != float64(rep.Rounds) {
			t.Errorf("%s: rounds series rose by %v over %d rounds", tenant, rose, rep.Rounds)
		} else if !ours && rose != 0 {
			t.Errorf("%s is no tenant of the fleet, yet its rounds series rose by %v", tenant, rose)
		}
	}
}

// tenantRoundSeries reads the tenant-rounds series of the process-wide
// registry by tenant, failing on a tenant with two.
func tenantRoundSeries(t *testing.T) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `robustscale_fleet_tenant_rounds_total{tenant="`)
		if !ok {
			continue
		}
		tenant, value, _ := strings.Cut(rest, `"} `)
		if _, dup := series[tenant]; dup {
			t.Errorf("tenant %s has two rounds series", tenant)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		series[tenant] = v
	}
	return series
}

// TestRoundObservationsComplete holds the round's instruments to the
// fleet round, not the tenant-round, at any worker count: one plan-round
// observation and one Report.Timing sample per round, all five phases
// present and within the wall time of Run, checkpoint time only with a
// state dir, and the scaler's cached plans counter still one per
// tenant-round. A round's forecast and optimize stages are tracer spans,
// so the fleet adds no observation to the stage histogram. The fleet
// hash must not see the worker count or the state dir.
func TestRoundObservationsComplete(t *testing.T) {
	const tenants, rounds = 32, 6
	stages := obs.Default.HistogramVec("robustscale_stage_duration_seconds", "", "stage", obs.LatencyBuckets)
	plans := obs.Default.CounterVec("robustscale_scaler_plans_total", "", "strategy")
	hash := ""
	for _, durable := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("workers=%d durable=%v", workers, durable)
			cfg := DefaultConfig(tenants)
			cfg.Workers, cfg.MaxRounds = workers, rounds
			if durable {
				cfg.StateDir = t.TempDir()
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			planned := plans.With(c.Tenants()[0].planner.Name())
			counts := func() [4]float64 {
				return [4]float64{float64(fleetPlanSeconds.Count()), planned.Value(),
					float64(stages.With("forecast").Count()), float64(stages.With("optimize").Count())}
			}
			before := counts()
			began := time.Now()
			rep, err := c.Run(context.Background())
			wall := time.Since(began).Seconds()
			if err != nil {
				t.Fatal(err)
			}
			after := counts()
			for i, counter := range []string{"fleet_plan_round_seconds", "scaler_plans_total", "stage forecast", "stage optimize"} {
				want := []float64{rounds, tenants * rounds, 0, 0}[i]
				if d := after[i] - before[i]; d != want {
					t.Errorf("%s: %s counted %v observations, want %v", name, counter, d, want)
				}
			}
			if rep.Timing == nil || rep.Timing.Samples != rounds || rep.Rounds != rounds {
				t.Fatalf("%s: %d rounds, timing %+v, want %d samples", name, rep.Rounds, rep.Timing, rounds)
			}
			ph := rep.Timing.PhaseSeconds
			sum := 0.0
			for _, p := range []float64{ph.Plan, ph.Admit, ph.Apply, ph.Fold, ph.Checkpoint} {
				if !(p >= 0) {
					t.Errorf("%s: phase seconds %+v, want each >= 0", name, ph)
				}
				sum += p
			}
			if sum > wall {
				t.Errorf("%s: phases sum to %vs, more than Run's %vs", name, sum, wall)
			}
			if !(ph.Plan > 0 && ph.Apply > 0) || (ph.Checkpoint > 0) != durable {
				t.Errorf("%s: phase seconds %+v", name, ph)
			}
			if hash != "" && rep.FleetHash != hash {
				t.Errorf("%s: fleet hash %s, want %s", name, rep.FleetHash, hash)
			}
			hash = rep.FleetHash
		}
	}
}

// TestPlanCountsFoldEveryRound: the fleet's tenants hold their planning
// counts until the plan barrier folds them, so a Run of r rounds leaves
// plans_total and planned_steps_total exactly r rounds on, at any worker
// count, as when every tenant added its own.
func TestPlanCountsFoldEveryRound(t *testing.T) {
	const tenants = 12
	plans := obs.Default.CounterVec("robustscale_scaler_plans_total", "", "strategy")
	steps := obs.Default.Counter("robustscale_scaler_planned_steps_total", "")
	for _, workers := range []int{1, 2} {
		for rounds := 1; rounds <= 3; rounds++ {
			cfg := DefaultConfig(tenants)
			cfg.Workers, cfg.MaxRounds = workers, rounds
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			planned := plans.With(c.Tenants()[0].planner.Name())
			p0, s0 := planned.Value(), steps.Value()
			if _, err := c.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got, want := planned.Value()-p0, float64(tenants*rounds); got != want {
				t.Errorf("workers %d, %d rounds: %v plans, want %v", workers, rounds, got, want)
			}
			if got, want := steps.Value()-s0, float64(tenants*rounds*cfg.Horizon); got != want {
				t.Errorf("workers %d, %d rounds: %v planned steps, want %v", workers, rounds, got, want)
			}
		}
	}
}

// TestTenantPlanCountsAtOnce: a fleet tenant holds its plan counts for
// Run's barrier, but one planned on its own through Plan adds each round
// to plans_total and planned_steps_total as it ends.
func TestTenantPlanCountsAtOnce(t *testing.T) {
	plans := obs.Default.CounterVec("robustscale_scaler_plans_total", "", "strategy")
	steps := obs.Default.Counter("robustscale_scaler_planned_steps_total", "")
	cfg := DefaultConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn := c.Tenants()[1]
	planned := plans.With(tn.planner.Name())
	p0, s0 := planned.Value(), steps.Value()
	for round := 1; round <= 3; round++ {
		if err := tn.Plan(); err != nil {
			t.Fatal(err)
		}
		if err := tn.Apply(); err != nil {
			t.Fatal(err)
		}
		if got := planned.Value() - p0; got != float64(round) {
			t.Errorf("after %d rounds: %v plans", round, got)
		}
		if got := steps.Value() - s0; got != float64(round*cfg.Horizon) {
			t.Errorf("after %d rounds: %v planned steps", round, got)
		}
	}
}

// TestKillRestartBitIdentical is the durability contract at fleet scale:
// stop the whole fleet at a round boundary, restart from the per-tenant
// checkpoints, and the completed run's fleet hash matches an
// uninterrupted run exactly, with every tenant warm-starting. Behind a
// binding pool the restart also resumes the admission counters: the
// clips, shed nodes and quarantine trips equal the uninterrupted run's.
func TestKillRestartBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool int
	}{{"no-pool", 0}, {"binding-pool", 12}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(6)
			cfg.PoolNodes = tc.pool
			uninterrupted := runFleet(t, cfg)
			if tc.pool > 0 && (uninterrupted.Pool.ShedNodes == 0 || uninterrupted.Pool.Quarantines == 0) {
				t.Fatalf("premise: the pool of %d neither sheds nor quarantines: %+v", tc.pool, uninterrupted.Pool)
			}

			dir := t.TempDir()
			phase1 := cfg
			phase1.StateDir = dir
			phase1.MaxRounds = 5
			rep1 := runFleet(t, phase1)
			if rep1.Rounds != 5 {
				t.Fatalf("phase 1 ran %d rounds, want 5", rep1.Rounds)
			}

			phase2 := cfg
			phase2.StateDir = dir
			rep2 := runFleet(t, phase2)
			if rep2.WarmStarts != cfg.Tenants {
				t.Fatalf("phase 2 warm-started %d/%d tenants", rep2.WarmStarts, cfg.Tenants)
			}
			if rep2.FleetHash != uninterrupted.FleetHash {
				t.Errorf("restarted fleet hash %s != uninterrupted %s", rep2.FleetHash, uninterrupted.FleetHash)
			}
			if rep2.Steps != uninterrupted.Steps || rep2.Violations != uninterrupted.Violations ||
				rep2.CostNodeSteps != uninterrupted.CostNodeSteps {
				t.Errorf("restarted totals diverged: %d/%d/%d vs %d/%d/%d",
					rep2.Steps, rep2.Violations, rep2.CostNodeSteps,
					uninterrupted.Steps, uninterrupted.Violations, uninterrupted.CostNodeSteps)
			}
			for i, tr := range rep2.PerTenant {
				if want := uninterrupted.PerTenant[i]; tr.AllocHash != want.AllocHash {
					t.Errorf("tenant %s alloc hash %s != %s", tr.ID, tr.AllocHash, want.AllocHash)
				}
			}
			if tc.pool > 0 {
				got, want := rep2.Pool, uninterrupted.Pool
				if got.AdmissionClips != want.AdmissionClips || got.ShedNodes != want.ShedNodes || got.Quarantines != want.Quarantines {
					t.Errorf("restarted pool clips/shed/quarantines %d/%d/%d, uninterrupted %d/%d/%d",
						got.AdmissionClips, got.ShedNodes, got.Quarantines, want.AdmissionClips, want.ShedNodes, want.Quarantines)
				}
			}
		})
	}
}

// segments lists the fleet segments under a state root, oldest first.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segment-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return segs
}

// editSegment rewrites one segment through edit, which is handed the file
// and the offset of the tenant's record (the first place its id occurs).
func editSegment(t *testing.T, path, tenant string, edit func(raw []byte, at int) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, []byte(tenant))
	if at < 0 {
		t.Fatalf("%s holds no record for %s", path, tenant)
	}
	if err := os.WriteFile(path, edit(raw, at), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptTenantFallsBackCold: a flipped byte inside one tenant's
// record in every retained segment costs only that tenant its warm start
// — every other tenant resumes warm from the newest segment, the victim
// re-derives its decisions from its seed, and the final fleet hash still
// matches an uninterrupted run.
func TestCorruptTenantFallsBackCold(t *testing.T) {
	cfg := testConfig(5)
	uninterrupted := runFleet(t, cfg)

	dir := t.TempDir()
	phase1 := cfg
	phase1.StateDir = dir
	phase1.MaxRounds = 4
	runFleet(t, phase1)

	victim := TenantID(2)
	segs := segments(t, dir)
	if len(segs) != phase1.Retain {
		t.Fatalf("%d segments retained after 4 rounds, want %d: %v", len(segs), phase1.Retain, segs)
	}
	for _, path := range segs {
		editSegment(t, path, victim, func(raw []byte, at int) []byte {
			raw[at+len(victim)+100] ^= 0xff // well inside the record's state
			return raw
		})
	}

	phase2 := cfg
	phase2.StateDir = dir
	rep2 := runFleet(t, phase2)
	if rep2.WarmStarts != cfg.Tenants-1 || rep2.ColdStarts != 1 {
		t.Fatalf("warm/cold = %d/%d, want %d/1", rep2.WarmStarts, rep2.ColdStarts, cfg.Tenants-1)
	}
	if rep2.CorruptSnaps == 0 {
		t.Error("corrupt snapshots not reported")
	}
	for _, tr := range rep2.PerTenant {
		if tr.ID == victim && tr.WarmStart {
			t.Errorf("victim %s warm-started from corrupt records", victim)
		}
		if tr.ID != victim && !tr.WarmStart {
			t.Errorf("bystander %s lost its warm start", tr.ID)
		}
	}
	if rep2.FleetHash != uninterrupted.FleetHash {
		t.Errorf("fleet hash after corrupt-tenant recovery %s != uninterrupted %s",
			rep2.FleetHash, uninterrupted.FleetHash)
	}
}

// TestTornSegmentTailFallsBack: the newest segment cut off mid-file keeps
// the tenants in front of the tear on their newest checkpoint and sends
// the ones behind it to the previous segment — all warm, a round apart,
// and converging on the uninterrupted hash.
func TestTornSegmentTailFallsBack(t *testing.T) {
	cfg := testConfig(6)
	uninterrupted := runFleet(t, cfg)

	dir := t.TempDir()
	phase1 := cfg
	phase1.StateDir = dir
	phase1.MaxRounds = 4
	runFleet(t, phase1)

	segs := segments(t, dir)
	editSegment(t, segs[len(segs)-1], TenantID(3), func(raw []byte, at int) []byte { return raw[:at+40] })

	phase2 := cfg
	phase2.StateDir = dir
	c, err := New(phase2)
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range c.Tenants() {
		want := 4
		if i >= 3 {
			want = 3
		}
		if !tn.warm || tn.Rounds() != want {
			t.Errorf("%s resumed warm=%v at round %d, want warm at round %d", tn.ID, tn.warm, tn.Rounds(), want)
		}
	}
	rep2, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.WarmStarts != cfg.Tenants || rep2.CorruptSnaps != 3 {
		t.Errorf("warm starts %d, corrupt snapshots %d; want %d and 3 (one per tenant behind the tear)",
			rep2.WarmStarts, rep2.CorruptSnaps, cfg.Tenants)
	}
	if rep2.FleetHash != uninterrupted.FleetHash {
		t.Errorf("fleet hash after torn-tail recovery %s != uninterrupted %s", rep2.FleetHash, uninterrupted.FleetHash)
	}
}

// TestSegmentBytesIndependentOfWorkers: records are encoded in parallel
// but laid out in tenant order, so every segment is byte-identical for
// any worker count.
func TestSegmentBytesIndependentOfWorkers(t *testing.T) {
	images := map[int]map[string][]byte{}
	for _, workers := range []int{1, 4} {
		cfg := testConfig(9)
		cfg.Workers = workers
		cfg.StateDir = t.TempDir()
		cfg.MaxRounds = 3
		runFleet(t, cfg)
		images[workers] = map[string][]byte{}
		for _, path := range segments(t, cfg.StateDir) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			images[workers][filepath.Base(path)] = raw
		}
	}
	if len(images[1]) != 3 || len(images[4]) != 3 {
		t.Fatalf("%d and %d segments after 3 rounds, want 3 each", len(images[1]), len(images[4]))
	}
	for name, raw := range images[1] {
		if !bytes.Equal(raw, images[4][name]) {
			t.Errorf("%s differs between -workers 1 and -workers 4", name)
		}
	}
}

// TestOneCommitPerRound: a checkpoint round is one committed file, one
// write observation and, when the commit fails, one fleet-scoped journal
// event — never one per tenant.
func TestOneCommitPerRound(t *testing.T) {
	cfg := testConfig(7)
	cfg.StateDir = t.TempDir()
	cfg.MaxRounds = 3
	writes := persist.CheckpointWrites()
	runFleet(t, cfg)
	if got := persist.CheckpointWrites() - writes; got != 3 {
		t.Errorf("3 checkpointed rounds of 7 tenants committed %v files, want 3", got)
	}
	if _, err := os.Stat(filepath.Join(cfg.StateDir, "tenants")); !os.IsNotExist(err) {
		t.Errorf("the fleet still creates per-tenant directories (stat err %v)", err)
	}

	cfg.MaxRounds = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(cfg.StateDir); err != nil { // every commit from here on fails
		t.Fatal(err)
	}
	since := obs.DefaultJournal.Total()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatalf("a failed commit took the loop down: %v", err)
	}
	events := obs.DefaultJournal.EventsFilteredTenant("", "checkpoint-error", since)
	if len(events) != 1 || events[0].Tenant != "" {
		t.Errorf("a failed commit journalled %+v, want one fleet-scoped checkpoint-error", events)
	}
}

// TestCheckpointFailsWithoutExtra: a snapshot whose loop accounting does
// not encode is not taken at all — written without it, the tenant would
// warm-start to a wrong rolling hash.
func TestCheckpointFailsWithoutExtra(t *testing.T) {
	cfg := testConfig(2)
	uninterrupted := runFleet(t, cfg)

	orig := encodeExtra
	defer func() { encodeExtra = orig }()
	encodeExtra = func(io.Writer, loopExtra) error { return errors.New("no encoder today") }

	phase1 := cfg
	phase1.StateDir = t.TempDir()
	phase1.MaxRounds = 2
	c, err := New(phase1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	since := obs.DefaultJournal.Total()
	err = c.Tenants()[1].Checkpoint()
	if err == nil || !strings.Contains(err.Error(), "loop accounting") {
		t.Fatalf("checkpoint without its Extra section returned %v", err)
	}
	if events := obs.DefaultJournal.EventsFilteredTenant(TenantID(1), "checkpoint-error", since); len(events) != 1 {
		t.Errorf("failed checkpoint journalled %d events for the tenant, want 1", len(events))
	}

	encodeExtra = orig
	phase2 := cfg
	phase2.StateDir = phase1.StateDir
	rep2 := runFleet(t, phase2)
	if rep2.WarmStarts != 0 {
		t.Errorf("%d tenants warm-started from snapshots that should not exist", rep2.WarmStarts)
	}
	if rep2.FleetHash != uninterrupted.FleetHash {
		t.Errorf("fleet hash %s != uninterrupted %s", rep2.FleetHash, uninterrupted.FleetHash)
	}
}

// TestCheckpointDegradedIsJournalled: an optional component whose Save
// fails is left out of the snapshot — the restart runs it fresh — and the
// checkpoint says so once, naming every such component; the snapshot is
// still taken and still warm-starts the tenant.
func TestCheckpointDegradedIsJournalled(t *testing.T) {
	orig := saveSection
	defer func() { saveSection = orig }()
	saveSection = func(component string, c saver, w io.Writer) error {
		if component == "guard" || component == "breaker" {
			return errors.New("no encoder today")
		}
		return c.Save(w)
	}

	cfg := testConfig(2)
	cfg.StateDir = t.TempDir()
	phase1 := cfg
	phase1.MaxRounds = 2
	c, err := New(phase1)
	if err != nil {
		t.Fatal(err)
	}
	since := obs.DefaultJournal.Total()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	events := obs.DefaultJournal.EventsFilteredTenant(TenantID(1), "checkpoint-degraded", since)
	if len(events) != phase1.MaxRounds {
		t.Fatalf("%d checkpoint-degraded events for the tenant over %d checkpoints, want one each", len(events), phase1.MaxRounds)
	}
	if events[0].Fields["components"] != 2 || !strings.Contains(events[0].Msg, "guard, breaker") {
		t.Errorf("event %+v does not name the guard and the breaker", events[0])
	}
	if errs := obs.DefaultJournal.EventsFilteredTenant("", "checkpoint-error", since); len(errs) != 0 {
		t.Errorf("a degraded checkpoint was journalled as failed: %+v", errs)
	}

	saveSection = orig
	since = obs.DefaultJournal.Total()
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range c.Tenants() {
		if !tn.warm || tn.cal == nil {
			t.Errorf("%s: warm = %v, calibration %v; want a warm start with the sections that did save", tn.ID, tn.warm, tn.cal)
		}
	}
	if events := obs.DefaultJournal.EventsFilteredTenant("", "restore-degraded", since); len(events) != 0 {
		t.Errorf("sections left out at the checkpoint were reported as failing to load: %+v", events)
	}
}

// TestMaxRoundsStopsAtBoundary pins the deterministic-stop contract the
// kill-restart CI drill relies on.
func TestMaxRoundsStopsAtBoundary(t *testing.T) {
	cfg := testConfig(2)
	cfg.MaxRounds = 3
	rep := runFleet(t, cfg)
	if rep.Rounds != 3 {
		t.Errorf("ran %d rounds, want 3", rep.Rounds)
	}
	wantSteps := int64(cfg.Tenants * 3 * cfg.Horizon)
	if rep.Steps != wantSteps {
		t.Errorf("replayed %d steps, want %d", rep.Steps, wantSteps)
	}
}
