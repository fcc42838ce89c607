package fleet

import (
	"context"
	"runtime"
	"testing"

	"robustscale/internal/persist"
)

// liveHeap returns what build leaves on the heap: HeapAlloc after it and
// two collections (the second frees what Pool victims kept), less
// HeapAlloc before it, with build's result held across the reading.
func liveHeap(build func() any) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(v)
	return float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
}

// TestWarmBuildHoldsNoSegment: a warm fleet.New reads every tenant's
// record out of the newest segment image, and the fleet it returns holds
// no more heap per tenant than the fleet that wrote that segment (a cold
// build run for the same twelve checkpointed rounds, a full calibration
// window), within 5 %. A restored component that kept a section of its
// record, rather than a copy of what it needs, would pin the whole
// fleet's image: ~4 KiB per tenant, 10 % of the heap.
func TestWarmBuildHoldsNoSegment(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const tenants = 64
	cfg := DefaultConfig(tenants)
	cfg.Days, cfg.MaxRounds, cfg.StateDir = 16, 12, t.TempDir()
	cold := liveHeap(func() any {
		c, err := New(cfg)
		must(t, err)
		_, err = c.Run(context.Background())
		must(t, err)
		return c
	})
	var warm *Controller
	held := liveHeap(func() any {
		var err error
		warm, err = New(cfg)
		must(t, err)
		return warm
	})
	if warm.warmCount != tenants {
		t.Fatalf("premise: %d of %d tenants warm-started", warm.warmCount, tenants)
	}
	t.Logf("live heap per tenant: %.0f B after the cold run, %.0f B after the warm build (%.3fx)",
		cold/tenants, held/tenants, held/cold)
	if held > 1.05*cold {
		t.Errorf("a warm build holds %.3fx the heap of the fleet that checkpointed it, want at most 1.05x", held/cold)
	}
}

// TestCheckpointAllocs: once warm, a tenant's checkpoint allocates one
// object, the framed record its slot holds until the segment's Commit.
// Every section is saved into a pooled buffer and the snapshot and its
// loop accounting come from the same pool, so with one P, which keeps the
// Pool on one shard, nothing else is made.
func TestCheckpointAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, tn := benchTenant(t)
	segs, err := persist.OpenSegments(t.TempDir(), 0, tn.Index+1)
	must(t, err)
	slot, err := segs.Slot(tn.Index, &tn.Fingerprint)
	must(t, err)
	tn.store = slot
	allocs := testing.AllocsPerRun(20, func() {
		if err := tn.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("%v allocs per warm checkpoint, want at most 1 (the framed record)", allocs)
	}
}

// TestColdBuildHeap pins what a cold fleet.New leaves on the heap per
// tenant, the figure bench's live_heap_kb_per_tenant reads after set-up:
// 64 tenants at 16 days held 21 594 B each before the tenant's parts were
// held in place (21 484 at 256), and the budget is that plus 2 %. A
// Tenant carries an 8-byte header in a 1 408-byte size class with its
// guard, breaker, history view, calibration window, applier and plant in
// it (~1 380 B, where they cost ~1 360 as separate objects); an embed
// that crosses into the next class costs 128 B a tenant.
func TestColdBuildHeap(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const tenants = 64
	cfg := DefaultConfig(tenants)
	cfg.Days = 16
	held := liveHeap(func() any {
		c, err := New(cfg)
		must(t, err)
		return c
	}) / tenants
	t.Logf("live heap per tenant after a cold build: %.0f B", held)
	if budget := 1.02 * 21594; held > budget {
		t.Errorf("a cold build holds %.0f B per tenant, want at most %.0f", held, budget)
	}
}

// TestWarmRestartAllocs pins what a warm restart allocates per tenant: a
// fleet at 16 days checkpoints three rounds, then a second New on its
// state dir restores every tenant (series from the series file, records
// from the newest segment) and runs one round, checkpoint included, on
// one worker. At 64 tenants it reads 27.75, and the budget is that plus
// 5 %; at 256 it may read no more than at 64, since a per-fleet cost only
// amortizes down. It read 56.4 while a restart built each tenant from a
// dozen objects it did not keep (a decoded State and its strings, the
// guard, breaker, applier and plant apart from the tenant, method values,
// fmt ids and hashes) and a fresh tenant's first round made its
// forecaster's fan, offsets and calibration window piece by piece, 66.4
// while the budget was 69.8, 70.4–70.9 while a series read allocated its
// record buffer and a calibration blob loaded through copies of its
// steps, and 112.5–112.9 while a record's sections were copied out of the
// segment image and copied again by each Load, a checkpoint built its
// snapshot on the heap, a fan's rows and a calibration ring were an
// object each and strategy names went through fmt.
func TestWarmRestartAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	per := map[int]float64{}
	for _, tenants := range []int{64, 256} {
		cfg := DefaultConfig(tenants)
		cfg.Days, cfg.MaxRounds, cfg.StateDir, cfg.Workers = 16, 3, t.TempDir(), 1
		runFleet(t, cfg)
		cfg.MaxRounds = 1
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c, err := New(cfg)
		must(t, err)
		_, err = c.Run(context.Background())
		runtime.ReadMemStats(&m1)
		must(t, err)
		if c.warmCount != tenants {
			t.Fatalf("premise: %d of %d tenants warm-started", c.warmCount, tenants)
		}
		per[tenants] = float64(m1.Mallocs-m0.Mallocs) / float64(tenants)
		t.Logf("%d tenants: %.2f mallocs per tenant for the restart build and its first round", tenants, per[tenants])
	}
	if budget := 1.05 * 27.75; per[64] > budget {
		t.Errorf("%.2f mallocs per tenant at 64 tenants, want at most %.2f", per[64], budget)
	}
	if per[256] > per[64] {
		t.Errorf("%.2f mallocs per tenant at 256 tenants, above the %.2f at 64: a per-tenant cost grew with the fleet", per[256], per[64])
	}
}
