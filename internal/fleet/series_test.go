package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"robustscale/internal/obs"
	"robustscale/internal/persist"
)

// seriesFile returns the one series file under a state root.
func seriesFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "series-*.ser"))
	if err != nil || len(files) != 1 {
		t.Fatalf("state root %s holds series files %v (err %v), want exactly one", dir, files, err)
	}
	return files[0]
}

// restoredAt builds cfg's fleet on its state root and returns how many
// tenants read their series back.
func restoredAt(t *testing.T, cfg Config) int {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.seriesRestored
}

// TestSeriesRestoredOnWarmRestart: the cold build leaves one series file,
// the restart reads every tenant's series out of it, and the file is
// invisible in every result — with it, without it and after it was
// deleted the run ends on the uninterrupted hash.
func TestSeriesRestoredOnWarmRestart(t *testing.T) {
	cfg := testConfig(6)
	uninterrupted := runFleet(t, cfg)
	if uninterrupted.SeriesRestored != 0 {
		t.Fatalf("a fleet without a state dir restored %d series", uninterrupted.SeriesRestored)
	}

	cfg.StateDir = t.TempDir()
	phase1 := cfg
	phase1.MaxRounds = 4
	writes := persist.CheckpointWrites()
	since := obs.DefaultJournal.Total()
	rep1 := runFleet(t, phase1)
	if rep1.SeriesRestored != 0 {
		t.Errorf("the cold build restored %d series from an empty root", rep1.SeriesRestored)
	}
	if got := persist.CheckpointWrites() - writes; got != 4 {
		t.Errorf("4 rounds and the series write counted as %v checkpoints, want 4", got)
	}
	if events := obs.DefaultJournal.EventsFilteredTenant("", "fleet-start", since); len(events) != 1 {
		t.Errorf("%d fleet-start events, want 1", len(events))
	} else if f := events[0].Fields; f["series_restored"] != 0 || f["cold"] != float64(cfg.Tenants) {
		t.Errorf("cold fleet-start carries series_restored = %v, cold = %v; want 0 and %d", f["series_restored"], f["cold"], cfg.Tenants)
	}
	if events := obs.DefaultJournal.EventsFilteredTenant("", "tenant-start", since); len(events) != 0 {
		t.Errorf("a cold build on an empty root journalled %d tenant-start events, want none", len(events))
	}
	written := seriesFile(t, cfg.StateDir)

	phase2 := cfg
	phase2.MaxRounds = 3
	since = obs.DefaultJournal.Total()
	rep2 := runFleet(t, phase2)
	if rep2.SeriesRestored != cfg.Tenants || rep2.WarmStarts != cfg.Tenants {
		t.Errorf("restart restored %d series and warm-started %d tenants, want %d of each",
			rep2.SeriesRestored, rep2.WarmStarts, cfg.Tenants)
	}
	if events := obs.DefaultJournal.EventsFilteredTenant("", "fleet-start", since); len(events) != 1 {
		t.Errorf("%d fleet-start events, want 1", len(events))
	} else if f := events[0].Fields; f["series_restored"] != float64(cfg.Tenants) || f["warm"] != float64(cfg.Tenants) {
		t.Errorf("warm fleet-start carries series_restored = %v, warm = %v; want %d of each", f["series_restored"], f["warm"], cfg.Tenants)
	}
	if events := obs.DefaultJournal.EventsFilteredTenant("", "tenant-start", since); len(events) != 0 {
		t.Errorf("a clean warm restart journalled %d tenant-start events, want none", len(events))
	}
	if again := seriesFile(t, cfg.StateDir); again != written {
		t.Errorf("a restart that missed nothing rewrote %s as %s", written, again)
	}

	// Deleting the file costs CPU time only.
	if err := os.Remove(written); err != nil {
		t.Fatal(err)
	}
	rep3 := runFleet(t, cfg)
	if rep3.SeriesRestored != 0 || rep3.WarmStarts != cfg.Tenants {
		t.Errorf("without the file: %d series restored, %d warm starts; want 0 and %d",
			rep3.SeriesRestored, rep3.WarmStarts, cfg.Tenants)
	}
	if rep3.FleetHash != uninterrupted.FleetHash {
		t.Errorf("fleet hash %s != uninterrupted %s", rep3.FleetHash, uninterrupted.FleetHash)
	}
	if restoredAt(t, cfg) != cfg.Tenants {
		t.Error("the run that regenerated every series did not save them again")
	}
}

// TestCorruptSeriesRecordRegeneratesOneTenant: a flipped byte inside one
// tenant's series record makes that tenant generate its series and every
// other tenant read theirs; nothing else moves, and the file is rewritten
// so the next open is clean.
func TestCorruptSeriesRecordRegeneratesOneTenant(t *testing.T) {
	cfg := testConfig(5)
	uninterrupted := runFleet(t, cfg)

	cfg.StateDir = t.TempDir()
	phase1 := cfg
	phase1.MaxRounds = 4
	runFleet(t, phase1)

	const victim = 2
	damaged := seriesFile(t, cfg.StateDir)
	raw, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	tc, _, _ := tenantTrace(cfg, victim, deriveSeed(cfg.Seed, victim))
	key := seriesKey(tc)
	at := bytes.Index(raw, key)
	if at < 0 {
		t.Fatalf("%s holds no record under tenant %d's key", damaged, victim)
	}
	raw[at+len(key)+800] ^= 0x04 // the hundredth value
	if err := os.WriteFile(damaged, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range c.Tenants() {
		if tn.seriesRestored != (i != victim) {
			t.Errorf("%s: series restored = %v", tn.ID, tn.seriesRestored)
		}
		if !tn.warm {
			t.Errorf("%s lost its warm start to a damaged series record", tn.ID)
		}
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeriesRestored != cfg.Tenants-1 || rep.CorruptSnaps != 0 {
		t.Errorf("%d series restored, %d corrupt snapshots; want %d and 0", rep.SeriesRestored, rep.CorruptSnaps, cfg.Tenants-1)
	}
	if rep.FleetHash != uninterrupted.FleetHash {
		t.Errorf("fleet hash %s != uninterrupted %s", rep.FleetHash, uninterrupted.FleetHash)
	}
	if rewritten := seriesFile(t, cfg.StateDir); rewritten == damaged {
		t.Errorf("the damaged %s was not replaced", damaged)
	}
	if got := restoredAt(t, cfg); got != cfg.Tenants {
		t.Errorf("after the rewrite %d/%d series restored", got, cfg.Tenants)
	}
}

// TestSeriesKeyFollowsTraceConfig: a series is read back only under the
// trace configuration it was generated from — other settings miss every
// record (and replace the file), a grown fleet misses only the new slots.
func TestSeriesKeyFollowsTraceConfig(t *testing.T) {
	for name, change := range map[string]func(*Config){
		"days":       func(c *Config) { c.Days++ },
		"units":      func(c *Config) { c.Units++ },
		"seed":       func(c *Config) { c.Seed++ },
		"serverless": func(c *Config) { c.Serverless = true },
	} {
		cfg := testConfig(7)
		cfg.StateDir = t.TempDir()
		restoredAt(t, cfg)
		if got := restoredAt(t, cfg); got != cfg.Tenants {
			t.Fatalf("%s: unchanged configuration restored %d/%d", name, got, cfg.Tenants)
		}
		change(&cfg)
		if got := restoredAt(t, cfg); got != 0 {
			t.Errorf("%s changed and %d series were still read back", name, got)
		}
		if got := restoredAt(t, cfg); got != cfg.Tenants {
			t.Errorf("%s: the changed fleet's series were not saved (%d/%d restored)", name, got, cfg.Tenants)
		}
	}

	cfg := testConfig(7)
	cfg.StateDir = t.TempDir()
	restoredAt(t, cfg)
	cfg.Tenants = 9
	if got := restoredAt(t, cfg); got != 7 {
		t.Errorf("fleet grown 7 -> 9 restored %d series, want 7", got)
	}
	if got := restoredAt(t, cfg); got != 9 {
		t.Errorf("second open of the grown fleet restored %d series, want 9", got)
	}
	cfg.Tenants = 4
	before := seriesFile(t, cfg.StateDir)
	if got := restoredAt(t, cfg); got != 4 {
		t.Errorf("fleet shrunk 9 -> 4 restored %d series, want 4", got)
	}
	if after := seriesFile(t, cfg.StateDir); after != before {
		t.Errorf("a shrunk fleet that missed nothing rewrote %s as %s", before, after)
	}
}

// TestSeriesWriteFailureIsNotFatal: when the series file cannot be
// published the fleet journals it once, fleet-scoped, and runs, checkpoints
// and restarts exactly as it would have.
func TestSeriesWriteFailureIsNotFatal(t *testing.T) {
	cfg := testConfig(4)
	uninterrupted := runFleet(t, cfg)

	cfg.StateDir = t.TempDir()
	// A directory squatting on the name the first series file would take:
	// the rename that publishes it fails.
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "series-00000000.ser", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	phase1 := cfg
	phase1.MaxRounds = 4
	since := obs.DefaultJournal.Total()
	runFleet(t, phase1)
	events := obs.DefaultJournal.EventsFilteredTenant("", "series-error", since)
	if len(events) != 1 || events[0].Tenant != "" {
		t.Errorf("a failed series write journalled %+v, want one fleet-scoped series-error", events)
	}
	if tmp, _ := filepath.Glob(filepath.Join(cfg.StateDir, "*.tmp")); len(tmp) != 0 {
		t.Errorf("the failed write left %v behind", tmp)
	}
	if got := len(segments(t, cfg.StateDir)); got != cfg.Retain {
		t.Errorf("%d segments after 4 rounds, want %d", got, cfg.Retain)
	}

	rep := runFleet(t, cfg)
	if rep.WarmStarts != cfg.Tenants || rep.SeriesRestored != 0 {
		t.Errorf("restart: %d warm starts, %d series restored; want %d and 0", rep.WarmStarts, rep.SeriesRestored, cfg.Tenants)
	}
	if rep.FleetHash != uninterrupted.FleetHash {
		t.Errorf("fleet hash %s != uninterrupted %s", rep.FleetHash, uninterrupted.FleetHash)
	}
}

// TestSeriesBytesIndependentOfWorkers: tenants are built in parallel but
// the file is laid out in tenant order.
func TestSeriesBytesIndependentOfWorkers(t *testing.T) {
	var images [][]byte
	for _, workers := range []int{1, 4} {
		cfg := testConfig(9)
		cfg.Workers = workers
		cfg.StateDir = t.TempDir()
		restoredAt(t, cfg)
		raw, err := os.ReadFile(seriesFile(t, cfg.StateDir))
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, raw)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Error("the series file differs between -workers 1 and -workers 4")
	}
	if want := 9 * 3 * stepsPerDay() * 8; len(images[0]) < want || len(images[0]) > want+9*400 {
		t.Errorf("series file is %d bytes for %d bytes of values", len(images[0]), want)
	}
}

// TestMangledExtraColdStartsOneTenant: a record that passes its CRC but
// whose loop accounting does not decode cold-starts its tenant — resumed
// without the rolling hash it would end on a wrong one — and only that
// tenant.
func TestMangledExtraColdStartsOneTenant(t *testing.T) {
	cfg := testConfig(5)
	uninterrupted := runFleet(t, cfg)

	cfg.StateDir = t.TempDir()
	phase1 := cfg
	phase1.MaxRounds = 4
	c, err := New(phase1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 3
	c.Tenants()[victim].Sections = func(st *persist.State) { st.Extra = []byte("not a gob stream") }
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	since := obs.DefaultJournal.Total()
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range c.Tenants() {
		if tn.warm != (i != victim) {
			t.Errorf("%s: warm = %v", tn.ID, tn.warm)
		}
	}
	if _, reason := c.Tenants()[victim].Recovery(); reason == "" {
		t.Error("the victim cold-started without a reason")
	}
	if starts := obs.DefaultJournal.EventsFilteredTenant("", "tenant-start", since); len(starts) != 1 || starts[0].Tenant != TenantID(victim) {
		t.Errorf("tenant-start events %+v, want one, the victim's", starts)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmStarts != cfg.Tenants-1 || rep.ColdStarts != 1 {
		t.Errorf("warm/cold = %d/%d, want %d/1", rep.WarmStarts, rep.ColdStarts, cfg.Tenants-1)
	}
	if rep.FleetHash != uninterrupted.FleetHash {
		t.Errorf("fleet hash %s != uninterrupted %s", rep.FleetHash, uninterrupted.FleetHash)
	}
}

// TestRestoreDegradedIsJournalled: a component section that does not load
// leaves that component fresh, keeps the warm start, and says so once.
func TestRestoreDegradedIsJournalled(t *testing.T) {
	cfg := testConfig(3)
	cfg.StateDir = t.TempDir()
	phase1 := cfg
	phase1.MaxRounds = 4
	c, err := New(phase1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	c.Tenants()[victim].Sections = func(st *persist.State) {
		st.Guard, st.Calibration = []byte("junk"), []byte("junk")
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	since := obs.DefaultJournal.Total()
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tn := c.Tenants()[victim]; !tn.warm || tn.cal != nil {
		t.Errorf("victim warm = %v with calibration %v, want a warm start on a fresh window", tn.warm, tn.cal)
	}
	events := obs.DefaultJournal.EventsFilteredTenant("", "restore-degraded", since)
	if len(events) != 1 || events[0].Tenant != TenantID(victim) || events[0].Fields["components"] != 2 {
		t.Fatalf("degraded restore journalled %+v, want one event for %s naming 2 components", events, TenantID(victim))
	}
	for _, want := range []string{"guard", "calibration"} {
		if !bytes.Contains([]byte(events[0].Msg), []byte(want)) {
			t.Errorf("event %q does not name the %s", events[0].Msg, want)
		}
	}
	if starts := obs.DefaultJournal.EventsFilteredTenant("", "tenant-start", since); len(starts) != 1 || starts[0].Tenant != TenantID(victim) {
		t.Errorf("tenant-start events %+v, want one, the victim's", starts)
	}
}
