package chaos

import (
	"reflect"
	"testing"
)

func fleetProfile(seed int64, steps int) Profile {
	return Profile{
		Name: "fleet-test", Seed: seed, Steps: steps,
		Rates: map[Class]float64{
			ForecastError: 0.1, TelemetryStale: 0.1, ApplyReject: 0.1,
			ZoneOutage: 0.08, PoolCollapse: 0.08, AdmissionReject: 0.08,
		},
	}
}

func TestTenantSeedDerivation(t *testing.T) {
	a := TenantSeed(42, "t00000")
	b := TenantSeed(42, "t00001")
	if a == b {
		t.Fatal("distinct tenants should derive distinct seeds")
	}
	if a != TenantSeed(42, "t00000") {
		t.Fatal("tenant seed derivation must be deterministic")
	}
	if TenantSeed(42, "t00000") == 0 || TenantSeed(0, "") == 0 {
		t.Fatal("derived seed must never be zero")
	}
}

func TestFleetScheduleDeterminism(t *testing.T) {
	p := fleetProfile(7, 200)
	a, err := NewFleetSchedule(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFleetSchedule(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.FleetEvents(), b.FleetEvents()) {
		t.Error("fleet-level events must be identical for the same profile")
	}
	sa, err := a.TenantSchedule(5, "t00005")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.TenantSchedule(5, "t00005")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa.Events(), sb.Events()) {
		t.Error("tenant schedules must be identical for the same profile")
	}
}

// A tenant's schedule is the exact restriction of the all-tenant run:
// deriving it from a fleet with different zone striping or alongside
// other tenants never changes its tenant-local events.
func TestTenantScheduleIsExactRestriction(t *testing.T) {
	p := fleetProfile(11, 300)
	fs, err := NewFleetSchedule(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Build the tenant's local classes directly with the derived seed.
	local := p
	local.Seed = TenantSeed(p.Seed, "t00003")
	local.Rates = map[Class]float64{
		ForecastError: 0.1, TelemetryStale: 0.1, ApplyReject: 0.1,
	}
	want, err := local.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.TenantSchedule(3, "t00003")
	if err != nil {
		t.Fatal(err)
	}
	// The expected schedule is the standalone build plus the zone-outage
	// translations, added in the same order TenantSchedule adds them.
	for _, e := range fs.FleetEvents() {
		if e.Class == ZoneOutage && fs.zoneOf(e) == fs.TenantZone(3) {
			want.Add(Event{Step: e.Step, Class: ApplyReject, Size: e.Size})
			want.Add(Event{Step: e.Step, Class: ForecastError, Size: e.Size})
		}
	}
	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Errorf("tenant schedule is not a restriction of the all-tenant run:\n got %v\nwant %v", got.Events(), want.Events())
	}
}

func TestZoneOutageStrikesOneZone(t *testing.T) {
	p := Profile{Name: "zones", Seed: 5, Steps: 400,
		Rates: map[Class]float64{ZoneOutage: 0.05}}
	const zones = 4
	fs, err := NewFleetSchedule(p, zones)
	if err != nil {
		t.Fatal(err)
	}
	outages := fs.FleetEvents()
	if len(outages) == 0 {
		t.Skip("no outage scheduled at this seed")
	}
	e := outages[0]
	hitZone := fs.zoneOf(e)
	for idx := 0; idx < 2*zones; idx++ {
		sched, err := fs.TenantSchedule(idx, "x")
		if err != nil {
			t.Fatal(err)
		}
		_, reject := sched.ActiveAt(e.Step, ApplyReject)
		_, forecast := sched.ActiveAt(e.Step, ForecastError)
		inZone := fs.TenantZone(idx) == hitZone
		if inZone && (!reject || !forecast) {
			t.Errorf("tenant %d in zone %d should see reject+forecast faults at step %d", idx, hitZone, e.Step)
		}
		if !inZone && (reject || forecast) {
			t.Errorf("tenant %d outside zone %d must not see outage faults at step %d", idx, hitZone, e.Step)
		}
	}
}

func TestPoolFactorAndAdmissionReject(t *testing.T) {
	fs, err := NewFleetSchedule(Profile{Name: "manual"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs.fleet.Add(Event{Step: 10, Class: PoolCollapse, Size: 3, Value: 0.25})
	fs.fleet.Add(Event{Step: 20, Class: AdmissionReject, Size: 2})
	if got := fs.PoolFactorAt(9); got != 1 {
		t.Errorf("PoolFactorAt(9) = %v, want 1", got)
	}
	for step := 10; step < 13; step++ {
		if got := fs.PoolFactorAt(step); got != 0.25 {
			t.Errorf("PoolFactorAt(%d) = %v, want 0.25", step, got)
		}
	}
	if got := fs.PoolFactorAt(13); got != 1 {
		t.Errorf("PoolFactorAt(13) = %v, want 1", got)
	}
	if fs.AdmissionRejectAt(19) || !fs.AdmissionRejectAt(20) || !fs.AdmissionRejectAt(21) || fs.AdmissionRejectAt(22) {
		t.Error("AdmissionRejectAt window wrong")
	}
	// Out-of-range collapse values fall back to the 0.5 default.
	fs.fleet.Add(Event{Step: 30, Class: PoolCollapse, Size: 1, Value: 7})
	if got := fs.PoolFactorAt(30); got != 0.5 {
		t.Errorf("PoolFactorAt(30) = %v, want 0.5 fallback", got)
	}
}

func TestFleetScheduleNilSafety(t *testing.T) {
	var fs *FleetSchedule
	if fs.PoolFactorAt(0) != 1 || fs.AdmissionRejectAt(0) || fs.Zones() != 1 {
		t.Error("nil FleetSchedule must behave as fault-free")
	}
	sched, err := fs.TenantSchedule(0, "t")
	if err != nil || !sched.Empty() {
		t.Error("nil FleetSchedule tenant schedule must be empty")
	}
	if fs.FleetEvents() != nil {
		t.Error("nil FleetSchedule must report no faulted tenants")
	}
}

func TestTenantFaulted(t *testing.T) {
	// Only zone-outage events: tenants in the struck zone are faulted,
	// others are clean bystanders.
	p := Profile{Name: "zones", Seed: 5, Steps: 400,
		Rates: map[Class]float64{ZoneOutage: 0.05}}
	fs, err := NewFleetSchedule(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	outages := fs.FleetEvents()
	if len(outages) == 0 {
		t.Skip("no outage scheduled at this seed")
	}
	struck := map[int]bool{}
	for _, e := range outages {
		struck[fs.zoneOf(e)] = true
	}
	for idx := 0; idx < 4; idx++ {
		sched, err := fs.TenantSchedule(idx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if faulted := !sched.Empty(); faulted != struck[fs.TenantZone(idx)] {
			t.Errorf("tenant %d faulted=%v, struck zone=%v", idx, faulted, struck[fs.TenantZone(idx)])
		}
	}
}

func TestFleetPresets(t *testing.T) {
	for _, name := range []string{"zone-outage", "pool-collapse", "admission-reject", "fleet"} {
		p, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("%s: name = %q", name, p.Name)
		}
		p.Seed, p.Steps = 3, 50
		if _, err := NewFleetSchedule(p, 2); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Adding fleet classes to a profile must not move the tenant-local
// event placement: per-class RNG streams keep single-class runs exact
// restrictions of combined runs.
func TestFleetClassesDoNotPerturbLocalStreams(t *testing.T) {
	base := Profile{Name: "base", Seed: 13, Steps: 250,
		Rates: map[Class]float64{ForecastError: 0.1, NodeKill: 0.05}}
	combined := base
	combined.Rates = map[Class]float64{
		ForecastError: 0.1, NodeKill: 0.05,
		ZoneOutage: 0.05, PoolCollapse: 0.05,
	}
	a, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := combined.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []Class{ForecastError, NodeKill} {
		var ea, eb []Event
		for _, e := range a.Events() {
			if e.Class == class {
				ea = append(ea, e)
			}
		}
		for _, e := range b.Events() {
			if e.Class == class {
				eb = append(eb, e)
			}
		}
		if !reflect.DeepEqual(ea, eb) {
			t.Errorf("%s stream perturbed by fleet classes", class)
		}
	}
}
