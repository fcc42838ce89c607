package fleet

import (
	"math"
	"testing"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

func TestChaosNoneIsBitIdentical(t *testing.T) {
	base := runFleet(t, testConfig(4))
	cfg := testConfig(4)
	cfg.Chaos = "none"
	rep := runFleet(t, cfg)
	if rep.FleetHash != base.FleetHash {
		t.Errorf("chaos=none changed the fleet hash: %s vs %s", rep.FleetHash, base.FleetHash)
	}
	if rep.Chaos != nil {
		t.Error("chaos=none should not emit a chaos report section")
	}
}

func TestChaosRunsAreDeterministic(t *testing.T) {
	cfg := testConfig(6)
	cfg.Chaos = "fleet"
	cfg.PoolNodes = 24
	a := runFleet(t, cfg)
	if a.Chaos == nil {
		t.Fatal("chaos run missing chaos report")
	}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		b := runFleet(t, cfg)
		if b.FleetHash != a.FleetHash {
			t.Errorf("workers=%d: chaos fleet hash %s, want %s", workers, b.FleetHash, a.FleetHash)
		}
		if b.Pool.ShedNodes != a.Pool.ShedNodes || b.Pool.Quarantines != a.Pool.Quarantines {
			t.Errorf("workers=%d: shed/quarantine %d/%d, want %d/%d",
				workers, b.Pool.ShedNodes, b.Pool.Quarantines, a.Pool.ShedNodes, a.Pool.Quarantines)
		}
	}
}

func TestChaosDegradesButSurvives(t *testing.T) {
	base := runFleet(t, testConfig(6))
	cfg := testConfig(6)
	cfg.Chaos = "fleet"
	rep := runFleet(t, cfg)
	if rep.FleetHash == base.FleetHash {
		t.Error("fleet chaos preset left the run untouched — schedule not wired?")
	}
	if rep.Steps != base.Steps {
		t.Errorf("chaos run lost steps: %d vs %d", rep.Steps, base.Steps)
	}
	if rep.Chaos.FaultedTenants == 0 {
		t.Error("no tenants marked faulted under the fleet preset")
	}
}

func TestChaosTenantsRestrictsEnrollment(t *testing.T) {
	victim := TenantID(2)
	cfg := testConfig(6)
	cfg.Chaos = "all" // tenant-local classes only: isolation is exact
	cfg.ChaosTenants = []string{victim}
	rep := runFleet(t, cfg)
	base := runFleet(t, testConfig(6))
	faulted := 0
	for i, tr := range rep.PerTenant {
		if tr.Faulted {
			faulted++
			if tr.ID != victim {
				t.Errorf("tenant %s faulted, only %s was enrolled", tr.ID, victim)
			}
			continue
		}
		// Bystanders of a tenant-local-only preset must be bit-identical.
		if tr.AllocHash != base.PerTenant[i].AllocHash {
			t.Errorf("bystander %s drifted: alloc hash %s vs %s",
				tr.ID, tr.AllocHash, base.PerTenant[i].AllocHash)
		}
	}
	if faulted == 0 {
		t.Error("enrolled victim carries no faults")
	}
}

func TestMeasureBlastRadius(t *testing.T) {
	base := runFleet(t, testConfig(6))
	cfg := testConfig(6)
	cfg.Chaos = "all"
	cfg.ChaosTenants = []string{TenantID(2)}
	rep := runFleet(t, cfg)
	br, err := MeasureBlastRadius(base, rep)
	if err != nil {
		t.Fatal(err)
	}
	if br.Faulted != 1 || br.Bystanders != 5 {
		t.Errorf("faulted/bystanders = %d/%d, want 1/5", br.Faulted, br.Bystanders)
	}
	if br.Affected != 0 || br.Radius != 0 {
		t.Errorf("single-victim local chaos leaked: affected=%d radius=%v ids=%v",
			br.Affected, br.Radius, br.AffectedIDs)
	}
	// Error paths.
	if _, err := MeasureBlastRadius(nil, rep); err == nil {
		t.Error("nil baseline accepted")
	}
	small := runFleet(t, testConfig(4))
	if _, err := MeasureBlastRadius(small, rep); err == nil {
		t.Error("tenant-count mismatch accepted")
	}
}

func TestZoneOutageBlastRadiusBounded(t *testing.T) {
	base := runFleet(t, testConfig(8))
	cfg := testConfig(8)
	cfg.Chaos = "zone-outage"
	cfg.Zones = 8 // one tenant per zone: most tenants are bystanders
	rep := runFleet(t, cfg)
	br, err := MeasureBlastRadius(base, rep)
	if err != nil {
		t.Fatal(err)
	}
	if br.Bystanders == 0 {
		t.Fatal("zone-outage drill struck every zone; no bystanders to measure")
	}
	// A zone outage strikes one zone's tenants; everything outside the
	// zone must stay within the drift tolerance (ISSUE bound: <= 1%).
	if br.Radius > 0.01 {
		t.Errorf("zone-outage blast radius %.3f exceeds 1%% (affected %v)", br.Radius, br.AffectedIDs)
	}
}

func TestResilienceMatrix(t *testing.T) {
	cfg := testConfig(4)
	cfg.PoolNodes = 64
	baseline, cells, err := ResilienceMatrix(cfg, []string{"none...invalid"})
	if err == nil {
		t.Error("invalid preset accepted by matrix")
	}
	baseline, cells, err = ResilienceMatrix(cfg, []string{"zone-outage", "pool-collapse"})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.FleetHash != goldenHash4 {
		t.Errorf("matrix baseline hash %s, want golden %s", baseline.FleetHash, goldenHash4)
	}
	if len(cells) != 2 {
		t.Fatalf("matrix rows %d, want 2", len(cells))
	}
	for _, cell := range cells {
		if cell.FleetHash == "" || cell.BlastRadius.Bystanders+cell.BlastRadius.Faulted != cfg.Tenants {
			t.Errorf("malformed matrix cell %+v", cell)
		}
	}
}

// hookTenant starts a guarded robust tenant on a naive forecaster over a
// short diurnal trace under sched, and reports whether its forecaster
// went through the fault wrapper.
func hookTenant(t *testing.T, sched *chaos.Schedule) (*Tenant, bool) {
	t.Helper()
	const trainEnd, horizon, theta = 48, 6, 2.0
	values := make([]float64, trainEnd+4*horizon)
	for i := range values {
		values[i] = 40 + 20*math.Sin(2*math.Pi*float64(i)/24)
	}
	tn := &Tenant{
		ID:       "hooks",
		Series:   timeseries.New("hooks", time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute, values),
		TrainEnd: trainEnd, Horizon: horizon,
		Fingerprint: persist.Fingerprint{Theta: theta, Horizon: horizon},
		GuardConfig: scaler.GuardConfig{Theta: theta, Tau: 0.9},
		Breaker:     scaler.Breaker{Cooldown: 3},
		Sched:       sched,
		Plant:       &cluster.AllocPlant{Theta: theta},
	}
	wrapped := false
	tn.Build = func(*Tenant, []byte, float64) (scaler.Strategy, forecast.Snapshotter, float64, error) {
		qf := forecast.NewNaive(horizon)
		if err := qf.Fit(tn.Series.Slice(0, trainEnd)); err != nil {
			return nil, nil, 0, err
		}
		faulty := tn.Faulty(qf)
		_, wrapped = faulty.(*chaos.Forecaster)
		return &scaler.Robust{Forecaster: faulty, Tau: 0.9, Theta: theta}, nil, 0, nil
	}
	if _, err := tn.Start(); err != nil {
		t.Fatal(err)
	}
	return tn, wrapped
}

// TestChaosHooksArmOnlyForHeldClasses: a tenant arms an injection point
// only when its schedule holds a class the point reads. With no schedule,
// or an empty one, nothing is armed and the forecaster is not wrapped.
// One event of a class arms exactly the points that read it, and the
// event fires: its injection counter moves over the tenant's rounds. The
// wake classes fire only in a scale-to-zero plant's wake, so for them
// the arming alone is checked here; the wake and wake-storm rows of
// cmd/fleetsim's TestFleetHashTable hold their firing.
func TestChaosHooksArmOnlyForHeldClasses(t *testing.T) {
	injected := obs.Default.CounterVec("robustscale_chaos_faults_injected_total", "", "class")
	for _, sched := range []*chaos.Schedule{nil, {}} {
		if tn, wrapped := hookTenant(t, sched); tn.hooks != (chaos.Hooks{}) || wrapped {
			t.Errorf("schedule %v: hooks %+v, forecaster wrapped %v; want none armed", sched, tn.hooks, wrapped)
		}
	}
	forecastHook, telemetryHook := chaos.Hooks{Forecast: true}, chaos.Hooks{Telemetry: true}
	applyHook, windowHook := chaos.Hooks{Apply: true, Window: true}, chaos.Hooks{Window: true}
	for _, tc := range []struct {
		class chaos.Class
		want  chaos.Hooks
		fires bool
	}{
		{chaos.ForecastError, forecastHook, true},
		{chaos.ForecastNaN, forecastHook, true},
		{chaos.ForecastCrossing, forecastHook, true},
		{chaos.ForecastBlowup, forecastHook, true},
		{chaos.ForecastLatency, forecastHook, true},
		{chaos.TelemetryStale, telemetryHook, true},
		{chaos.TelemetryDropout, telemetryHook, true},
		{chaos.TelemetryDuplicate, telemetryHook, true},
		{chaos.ApplyReject, applyHook, true},
		{chaos.ApplyPartial, applyHook, true},
		{chaos.ApplyTimeout, applyHook, true},
		{chaos.NodeKill, windowHook, true},
		{chaos.WakeStall, windowHook, false},
		{chaos.WakeFail, windowHook, false},
		{chaos.PartialProvision, windowHook, false},
		// Fleet-level classes strike the controller, never a tenant hook.
		{chaos.PoolCollapse, chaos.Hooks{}, false},
		{chaos.WakeStorm, chaos.Hooks{}, false},
	} {
		sched := &chaos.Schedule{}
		sched.Add(chaos.Event{Step: 0, Class: tc.class, Size: 3, Value: 30})
		tn, wrapped := hookTenant(t, sched)
		if tn.hooks != tc.want || wrapped != tc.want.Forecast {
			t.Errorf("%s: hooks %+v, forecaster wrapped %v; want %+v", tc.class, tn.hooks, wrapped, tc.want)
		}
		before := injected.With(string(tc.class)).Value()
		for tn.Active() {
			_ = tn.Plan()
			if err := tn.Apply(); err != nil {
				t.Fatalf("%s: %v", tc.class, err)
			}
		}
		if fired := injected.With(string(tc.class)).Value() > before; tc.fires && !fired {
			t.Errorf("%s: armed, but the event never fired", tc.class)
		}
	}
}
