package fleet

import (
	"testing"
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
