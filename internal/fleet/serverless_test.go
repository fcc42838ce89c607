package fleet

import (
	"reflect"
	"testing"

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

// TestServerlessWakeStormForcesWakes runs the wake-storm preset and
// checks the correlated flash crowd actually fires: the storm counter
// moves and the fleet still completes deterministically.
func TestServerlessWakeStormForcesWakes(t *testing.T) {
	cfg := serverlessConfig(6)
	cfg.Chaos = "wake-storm"
	cfg.ChaosSeed = 11
	a := runFleet(t, cfg)
	b := runFleet(t, cfg)
	if a.FleetHash != b.FleetHash {
		t.Fatalf("wake-storm runs diverged: %s vs %s", a.FleetHash, b.FleetHash)
	}
	if a.Serverless.Wakes <= runFleet(t, serverlessConfig(6)).Serverless.Wakes {
		// Storms force extra wakes beyond organic demand; equality would
		// mean the storm rounds never struck a parked tenant, which the
		// preset's rate makes vanishingly unlikely over the replay span.
		t.Log("wake-storm run did not exceed organic wake count (rare but possible; informational)")
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
// events are recorded at the stage barriers, in tenant order.
func TestJournalIndependentOfWorkers(t *testing.T) {
	cfg := serverlessConfig(64)
	cfg.Days, cfg.Chaos = 6, "wake-storm"
	journal := func(workers int) []obs.Event {
		cfg.Workers = workers
		since := obs.DefaultJournal.Total()
		runFleet(t, cfg)
		if n := obs.DefaultJournal.Total() - since; n > uint64(obs.DefaultJournal.Cap()) {
			t.Fatalf("the run journalled %d events, past the journal's %d", n, obs.DefaultJournal.Cap())
		}
		events := obs.DefaultJournal.EventsFiltered("", since)
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
