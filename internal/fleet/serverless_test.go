package fleet

import (
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"robustscale/internal/obs"
)

// serverlessConfig is the serverless analogue of testConfig: the
// scale-to-zero model on, a per-node threshold matched to the small
// serverless traces, and enough replay days for park/wake cycles.
func serverlessConfig(tenants int) Config {
	cfg := DefaultConfig(tenants)
	cfg.Days = 4
	cfg.Serverless = true
	cfg.Theta = 8
	return cfg
}

// TestServerlessFleetParksAndWakes is the end-to-end smoke: a serverless
// fleet must actually exercise the zero boundary — parks, wakes and
// parked steps all non-zero — and the zero-capacity steps must show up
// as saved cost versus an always-on floor.
func TestServerlessFleetParksAndWakes(t *testing.T) {
	rep := runFleet(t, serverlessConfig(6))
	if rep.Serverless == nil {
		t.Fatal("serverless run produced no serverless report")
	}
	s := rep.Serverless
	if s.Parks == 0 || s.Wakes == 0 {
		t.Fatalf("no zero-boundary activity: %+v", s)
	}
	if s.ParkedSteps == 0 {
		t.Fatal("no parked steps despite parks")
	}
	if s.WakeSamples == 0 {
		t.Fatal("no completed wakes measured")
	}
	if !s.WakeSLOMet {
		t.Errorf("fault-free run breached the wake-latency SLO: p99 %.0fs vs %.0fs",
			s.WakeP99Seconds, s.WakeSLOSeconds)
	}
	// Per-tenant records carry the wake fields.
	var parks int64
	for _, tr := range rep.PerTenant {
		parks += tr.Parks
	}
	if parks != s.Parks {
		t.Errorf("per-tenant parks %d != aggregate %d", parks, s.Parks)
	}
}

// TestServerlessWorkerCountDeterminism extends the core fleet contract
// to the serverless model: park/wake decisions, plant outcomes and the
// joint (count x size) hash must be bit-identical for any worker count.
func TestServerlessWorkerCountDeterminism(t *testing.T) {
	var base *Report
	for _, workers := range []int{1, 4} {
		cfg := serverlessConfig(6)
		cfg.Workers = workers
		rep := runFleet(t, cfg)
		if base == nil {
			base = rep
			continue
		}
		if rep.FleetHash != base.FleetHash {
			t.Errorf("workers=%d: fleet hash %s != %s", workers, rep.FleetHash, base.FleetHash)
		}
		if *rep.Serverless != *base.Serverless {
			t.Errorf("workers=%d: serverless report diverged:\n  %+v\n  %+v",
				workers, *rep.Serverless, *base.Serverless)
		}
	}
}

// TestServerlessOffIsUntouched pins the compatibility headline: with
// Serverless false the fleet takes the exact pre-serverless code path —
// same archetypes, same grading, same hash — so this PR cannot move any
// existing result.
func TestServerlessOffIsUntouched(t *testing.T) {
	cfg := testConfig(4)
	rep := runFleet(t, cfg)
	if rep.Serverless != nil {
		t.Fatal("non-serverless run grew a serverless report")
	}
	for _, tr := range rep.PerTenant {
		if tr.Archetype != "alibaba" && tr.Archetype != "google" {
			t.Fatalf("non-serverless run used archetype %q", tr.Archetype)
		}
		if tr.Parks != 0 || tr.Wakes != 0 || tr.ParkedSteps != 0 {
			t.Fatalf("non-serverless tenant carries wake state: %+v", tr)
		}
	}
}

// TestServerlessWakeChaosBoundedDegradation runs the wake preset and
// requires the run to complete with bounded damage: wake failures
// happen, but the violation rate stays finite and the report is
// deterministic across repeats.
func TestServerlessWakeChaosBoundedDegradation(t *testing.T) {
	cfg := serverlessConfig(6)
	cfg.Chaos = "wake"
	a := runFleet(t, cfg)
	b := runFleet(t, cfg)
	if a.FleetHash != b.FleetHash {
		t.Fatalf("wake-chaos runs diverged: %s vs %s", a.FleetHash, b.FleetHash)
	}
	if a.Serverless.WakeFailures == 0 {
		t.Error("wake preset injected no wake failures over the run")
	}
	if a.ViolationRate >= 0.9 {
		t.Errorf("wake chaos collapsed the fleet: violation rate %.2f", a.ViolationRate)
	}
}

// TestServerlessWakeStormForcesWakes: a storm strikes parked tenants —
// a journalled wake-storm event forces some awake — and none of them
// spends a step of that round at zero, while a tenant the plant held at
// zero starts a wake; the run is deterministic. Most storms in a small
// fleet strike before anyone has parked (ChaosSeed 11 journals "forced
// 0" twice), so the fleet runs six days at ChaosSeed 1, whose first
// storm forces 4 of the 12 tenants awake.
func TestServerlessWakeStormForcesWakes(t *testing.T) {
	cfg := serverlessConfig(12)
	cfg.Days, cfg.Chaos, cfg.ChaosSeed = 6, "wake-storm", 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each tenant's hook writes only its own maps: the apply stage runs
	// tenants in parallel. Rounds are keyed by their first step's time.
	type rounds struct{ woke, parked map[time.Time]bool }
	seen := map[string]rounds{}
	for _, tn := range c.Tenants() {
		r := rounds{map[time.Time]bool{}, map[time.Time]bool{}}
		seen[tn.ID] = r
		tn.OnStep = func(st Step) {
			at := tn.Series.TimeAt(st.Index - st.I)
			r.woke[at] = r.woke[at] || st.Wake.WakeStarted
			r.parked[at] = r.parked[at] || st.Wake.Parked
		}
	}
	since := obs.DefaultJournal.Total()
	a, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	forced, woke := map[time.Time]int{}, 0
	var storms []obs.Event
	for _, e := range journalEvents("", "", since) {
		switch {
		case e.Kind == "wake-storm":
			storms = append(storms, e)
		case e.Kind == "wake" && e.Msg == "forced wake (storm drill)":
			forced[e.Time]++
			if r := seen[e.Tenant]; r.parked[e.Time] {
				t.Errorf("%s was forced awake at %v and still spent a step at zero", e.Tenant, e.Time)
			} else if r.woke[e.Time] {
				woke++
			}
		}
	}
	struck := 0
	for _, e := range storms {
		if n := int(e.Fields["forced"]); n > 0 {
			struck++
			if forced[e.Time] != n {
				t.Errorf("the storm at %v forced %d tenants, %d journalled a forced wake", e.Time, n, forced[e.Time])
			}
		}
	}
	if struck == 0 || woke == 0 {
		t.Fatalf("premise: %d of %d storms forced a parked tenant awake, %d of those started a wake", struck, len(storms), woke)
	}
	if b := runFleet(t, cfg); a.FleetHash != b.FleetHash {
		t.Fatalf("wake-storm runs diverged: %s vs %s", a.FleetHash, b.FleetHash)
	}
}

// TestServerlessWakeStormMeetsSLO: a 12-tenant storm drill keeps its
// wake-latency p99 inside a one-hour SLO budget, which covers the
// injected stalls on top of the fault-free wake.
func TestServerlessWakeStormMeetsSLO(t *testing.T) {
	cfg := serverlessConfig(12)
	cfg.Chaos, cfg.WakeSLOSeconds = "wake-storm", 3600
	s := runFleet(t, cfg).Serverless
	if s.WakeSamples == 0 || !s.WakeSLOMet || s.WakeP99Seconds > cfg.WakeSLOSeconds {
		t.Errorf("storm drill: p99 %.0fs over %d samples against a %.0fs SLO (met %v)",
			s.WakeP99Seconds, s.WakeSamples, cfg.WakeSLOSeconds, s.WakeSLOMet)
	}
}

// TestWakeFaultsStayLocal: wake faults stay with the tenants they
// strike — a blast radius of 0 against the fault-free serverless fleet.
func TestWakeFaultsStayLocal(t *testing.T) {
	base := runFleet(t, serverlessConfig(12))
	cfg := serverlessConfig(12)
	cfg.Chaos = "wake"
	rep := runFleet(t, cfg)
	if rep.Serverless.WakeFailures == 0 {
		t.Fatal("premise: the wake preset failed no wake")
	}
	br, err := MeasureBlastRadius(base, rep)
	if err != nil {
		t.Fatal(err)
	}
	if br.Radius != 0 {
		t.Errorf("wake faults leaked: radius %v, affected %v", br.Radius, br.AffectedIDs)
	}
}

// TestServerlessMetricsExposed: a serverless run exposes the parked-tenant
// gauge and the wake-start counter.
func TestServerlessMetricsExposed(t *testing.T) {
	runFleet(t, serverlessConfig(12))
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"robustscale_parked_tenants", "robustscale_wake_starts_total"} {
		if !regexp.MustCompile(`(?m)^` + family + `[ {]`).MatchString(b.String()) {
			t.Errorf("no %s sample in the exposition", family)
		}
	}
}

// TestServerlessKillRestartMidWake is the resume headline: kill the
// fleet at a round boundary (with wakes in flight under the wake
// preset), restart warm, and require the final hash and serverless
// totals to match an uninterrupted run bit for bit.
func TestServerlessKillRestartMidWake(t *testing.T) {
	cfg := serverlessConfig(5)
	cfg.Chaos = "wake"
	uninterrupted := runFleet(t, cfg)

	dir := t.TempDir()
	phase1 := cfg
	phase1.StateDir = dir
	phase1.MaxRounds = 5
	if rep := runFleet(t, phase1); rep.Rounds != 5 {
		t.Fatalf("phase 1 ran %d rounds, want 5", rep.Rounds)
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
	if *rep2.Serverless != *uninterrupted.Serverless {
		t.Errorf("restarted serverless totals diverged:\n  %+v\n  %+v",
			*rep2.Serverless, *uninterrupted.Serverless)
	}
}

// TestServerlessStaleCheckpointColdStarts pins the fingerprint contract:
// a checkpoint written by a non-serverless run must not warm-start a
// serverless fleet (the archetype in Fingerprint.Dataset differs).
func TestServerlessStaleCheckpointColdStarts(t *testing.T) {
	dir := t.TempDir()
	plain := testConfig(3)
	plain.StateDir = dir
	runFleet(t, plain)

	sl := serverlessConfig(3)
	sl.Days = plain.Days
	sl.Theta = plain.Theta
	sl.StateDir = dir
	rep := runFleet(t, sl)
	if rep.WarmStarts != 0 {
		t.Fatalf("serverless fleet warm-started %d tenants from non-serverless checkpoints", rep.WarmStarts)
	}
}

// TestJournalIndependentOfWorkers: a 64-tenant, six-day serverless fleet
// under wake-storm chaos journals the same events in the same order at
// one worker and at two, its wake transitions among them: a tenant's wake
// events are recorded at the stage barriers, in tenant order. Wake
// breakers trip at both worker counts, so the race detector sees each
// driven by the one loop that owns it.
func TestJournalIndependentOfWorkers(t *testing.T) {
	cfg := serverlessConfig(64)
	cfg.Days, cfg.Chaos = 6, "wake-storm"
	journal := func(workers int) []obs.Event {
		cfg.Workers = workers
		since := obs.DefaultJournal.Total()
		if rep := runFleet(t, cfg); rep.Serverless.BreakerTrips == 0 {
			t.Fatalf("premise: no wake breaker tripped at %d workers", workers)
		}
		if stats, _ := obs.DefaultJournal.Events("", "", 0); stats.Total-since > uint64(stats.Capacity) {
			t.Fatalf("the run journalled %d events, past the journal's %d", stats.Total-since, stats.Capacity)
		}
		events := journalEvents("", "", since)
		for i := range events {
			events[i].Seq = 0
		}
		return events
	}
	one, two := journal(1), journal(2)
	wakes := 0
	for _, e := range one {
		if e.Kind == "wake" {
			wakes++
		}
	}
	if wakes < 100 {
		t.Fatalf("premise: %d wake events journalled, want the storm's hundreds", wakes)
	}
	if len(one) != len(two) {
		t.Fatalf("%d events at one worker, %d at two", len(one), len(two))
	}
	for i := range one {
		if !reflect.DeepEqual(one[i], two[i]) {
			t.Fatalf("event %d of %d: %+v at one worker, %+v at two", i, len(one), one[i], two[i])
		}
	}
}
