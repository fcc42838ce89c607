// Fleet-scale chaos: correlated fault classes that strike the shared
// control plane rather than a single tenant's loop, plus per-tenant
// fault schedules derived from one master seed.
//
// The derivation mirrors the per-class FNV pattern: each tenant's local
// schedule is built from TenantSeed(master, id), so a single tenant's
// schedule is the exact restriction of the all-tenant run — adding or
// removing tenants from the injection set never perturbs another
// tenant's event placement, and fleet-level classes (zone outage, pool
// collapse, admission rejects) draw from the master seed's own per-class
// streams so they are identical no matter which tenants are enrolled.
package chaos

import (
	"hash/fnv"
	"slices"
)

// The fleet-level fault classes. Unlike the per-loop taxonomy these are
// correlated: one event strikes many tenants (zone outage) or the shared
// capacity pool itself (collapse, admission rejects).
const (
	// ZoneOutage takes a deterministic tenant subset (one zone) offline
	// for the event window: affected tenants see control-plane rejects
	// and forecaster errors for the duration.
	ZoneOutage Class = "zone-outage"
	// PoolCollapse shrinks the shared node pool to Event.Value (a
	// remaining fraction in (0, 1]) for the event window.
	PoolCollapse Class = "pool-collapse"
	// AdmissionReject makes the admission RPC refuse every clip/shed
	// decision for the window: tenants hold their previous allocation.
	AdmissionReject Class = "admission-reject"
	// WakeStorm is a correlated flash crowd: every parked tenant is
	// forced awake simultaneously for the window, stressing cold-start
	// latency and pool admission at the same instant — the serverless
	// failure mode scale-to-zero fleets fear most.
	WakeStorm Class = "wake-storm"
)

// FleetClasses lists the fleet-level classes in taxonomy order.
var FleetClasses = []Class{ZoneOutage, PoolCollapse, AdmissionReject, WakeStorm}

// TenantSeed derives a per-tenant RNG seed from the fleet master seed, so
// tenant streams are independent of each other and of the class streams.
func TenantSeed(seed int64, id string) int64 { return deriveSeed(seed, id) }

// deriveSeed is seed xor the FNV-1a hash of name (1 where that is 0): the
// stream of one class or one tenant.
func deriveSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	derived := seed ^ int64(h.Sum64())
	if derived == 0 {
		derived = 1
	}
	return derived
}

// FleetSchedule is a precomputed fleet-wide fault plan: fleet-level
// events built from the master seed, plus a profile template from which
// per-tenant local schedules derive. A nil *FleetSchedule is empty.
type FleetSchedule struct {
	profile Profile
	zones   int
	fleet   *Schedule // ZoneOutage / PoolCollapse / AdmissionReject events
}

// NewFleetSchedule expands the profile into a fleet schedule. The
// fleet-level classes build immediately from the master seed; tenant
// schedules are derived on demand by TenantSchedule. zones is the number
// of failure domains tenants are striped across (minimum 1).
func NewFleetSchedule(p Profile, zones int) (*FleetSchedule, error) {
	if zones < 1 {
		zones = 1
	}
	fleetProfile := p
	fleetProfile.Rates = map[Class]float64{}
	for class, rate := range p.Rates {
		if slices.Contains(FleetClasses, class) {
			fleetProfile.Rates[class] = rate
		}
	}
	sched, err := fleetProfile.Build()
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &FleetSchedule{profile: p, zones: zones, fleet: sched}, nil
}

// Zones returns the number of failure domains.
func (fs *FleetSchedule) Zones() int {
	if fs == nil {
		return 1
	}
	return fs.zones
}

// FleetEvents returns the fleet-level events, ordered by step then class.
func (fs *FleetSchedule) FleetEvents() []Event {
	if fs == nil {
		return nil
	}
	return fs.fleet.Events()
}

// zoneOf maps an event to the failure domain it strikes: the event's
// start step modulo the zone count, so each outage deterministically
// names one zone without consuming extra randomness.
func (fs *FleetSchedule) zoneOf(e Event) int { return e.Step % fs.zones }

// TenantZone returns the failure domain a tenant index lives in.
func (fs *FleetSchedule) TenantZone(index int) int {
	if fs == nil {
		return 0
	}
	if index < 0 {
		index = -index
	}
	return index % fs.zones
}

// TenantSchedule derives the tenant's local fault schedule: its own
// tenant-local classes seeded by TenantSeed(master, id), plus the
// translation of every zone-outage window that covers the tenant's zone
// into control-plane rejects and forecaster errors. The result is an
// exact restriction of the all-tenant run — other tenants' schedules
// never influence it.
func (fs *FleetSchedule) TenantSchedule(index int, id string) (*Schedule, error) {
	if fs == nil {
		return &Schedule{}, nil
	}
	local := fs.profile
	local.Seed = TenantSeed(fs.profile.Seed, id)
	local.Rates = map[Class]float64{}
	for class, rate := range fs.profile.Rates {
		if !slices.Contains(FleetClasses, class) {
			local.Rates[class] = rate
		}
	}
	sched, err := local.Build()
	if err != nil {
		return nil, err
	}
	zone := fs.TenantZone(index)
	for _, e := range fs.fleet.Events() {
		if e.Class != ZoneOutage || fs.zoneOf(e) != zone {
			continue
		}
		// The zone is dark: scaling actions bounce and forecasts fail
		// for the outage window.
		sched.Add(Event{Step: e.Step, Class: ApplyReject, Size: e.Size})
		sched.Add(Event{Step: e.Step, Class: ForecastError, Size: e.Size})
	}
	return sched, nil
}

// PoolFactorAt returns the remaining capacity fraction of the shared
// pool at the step: 1.0 normally and, during a collapse window, the value
// of the latest-starting active PoolCollapse event (0.5 when that value
// is outside (0, 1]).
func (fs *FleetSchedule) PoolFactorAt(step int) float64 {
	if fs == nil {
		return 1
	}
	e, ok := fs.fleet.ActiveAt(step, PoolCollapse)
	if !ok {
		return 1
	}
	if e.Value <= 0 || e.Value > 1 {
		return 0.5
	}
	return e.Value
}

// AdmissionRejectAt reports whether the admission RPC is refusing
// decisions at the step.
func (fs *FleetSchedule) AdmissionRejectAt(step int) bool {
	if fs == nil {
		return false
	}
	_, ok := fs.fleet.ActiveAt(step, AdmissionReject)
	return ok
}

// WakeStormAt reports whether a correlated flash crowd is forcing every
// parked tenant awake at the step.
func (fs *FleetSchedule) WakeStormAt(step int) bool {
	if fs == nil {
		return false
	}
	_, ok := fs.fleet.ActiveAt(step, WakeStorm)
	return ok
}
