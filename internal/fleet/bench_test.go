package fleet

import (
	"context"
	"runtime"
	"testing"
	"time"

	"robustscale/internal/obs"
	"robustscale/internal/persist"
)

// memStore is a checkpointStore that keeps the last snapshot in memory.
// Sections alias the tenant's pooled buffer until Write returns, so it
// copies them out — into one arena it reuses, as a slot frames a record.
type memStore struct {
	st    persist.State
	arena []byte
}

func (m *memStore) Recover() (*persist.State, persist.RecoverInfo, error) {
	return &m.st, persist.RecoverInfo{}, nil
}

func (m *memStore) Write(st *persist.State) (string, error) {
	m.st, m.arena = *st, m.arena[:0]
	for _, sec := range [...]*[]byte{&m.st.Forecaster, &m.st.Calibration, &m.st.Guard, &m.st.Breaker, &m.st.Extra} {
		at := len(m.arena)
		m.arena = append(m.arena, *sec...)
		*sec = m.arena[at:len(m.arena):len(m.arena)]
	}
	return "", nil
}

// benchTenant is one seasonal-naive tenant at the fleet's default shape,
// three rounds into its replay (calibration window filling, guard and
// breaker exercised) and checkpointed once into a memStore. It is the
// fleet's second tenant: the first also carries the fleet's SLO tracker.
func benchTenant(b testing.TB) (Config, *Tenant) {
	cfg := DefaultConfig(2)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tn := c.Tenants()[1]
	for round := 0; round < 3; round++ {
		if err := tn.Plan(); err != nil {
			b.Fatal(err)
		}
		if err := tn.Apply(); err != nil {
			b.Fatal(err)
		}
	}
	tn.store = &memStore{}
	if err := tn.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return cfg, tn
}

// BenchmarkFleetRun is the fleet's hot loop in-process: one Run of a
// 256-tenant seasonal-naive fleet, every round's plan → admit → apply
// pass through the worker pool, one worker per P. fleet.New is set-up and
// stays outside the timer. Besides ns/op it reports wall µs per
// tenant-round and, where the platform has getrusage, user-CPU µs per
// tenant-round (the whole process, as the bench measures it), so
// `go test -bench FleetRun -cpu 1,2` shows what a second worker costs.
func BenchmarkFleetRun(b *testing.B) {
	cfg := DefaultConfig(256)
	cfg.Days = 4
	cfg.Workers = runtime.GOMAXPROCS(0)
	var tenantRounds int64
	var user time.Duration
	measured := false
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		user0, _ := userCPU()
		b.StartTimer()
		rep, err := c.Run(context.Background())
		user1, ok := userCPU()
		if err != nil {
			b.Fatal(err)
		}
		tenantRounds += rep.Steps / int64(cfg.Horizon)
		user, measured = user+user1-user0, ok
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(tenantRounds), "us/tenant-round")
	if measured {
		b.ReportMetric(float64(user.Microseconds())/float64(tenantRounds), "user-us/tenant-round")
	}
}

// BenchmarkFleetNew is a cold fleet build: New for a 64-tenant fleet at
// 16 days, one worker per P, no state dir — every tenant's trace
// generated, its forecaster fit and its strategy built — with the default
// seasonal-naive forecaster and with the quantile MLP. It reports ns,
// allocs and allocated bytes per tenant, and the live heap the last build
// holds per tenant, so `go test -bench FleetNew -cpu 1` compares builds of
// any size.
func BenchmarkFleetNew(b *testing.B) {
	for _, kind := range []string{ForecasterSeasonalNaive, ForecasterQuantileMLP} {
		b.Run(kind, func(b *testing.B) {
			const tenants = 64
			cfg := DefaultConfig(tenants)
			cfg.Days = 16
			cfg.Forecaster = kind
			cfg.Workers = runtime.GOMAXPROCS(0)
			var m0, m1, held, freed runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			var c *Controller
			for i := 0; i < b.N; i++ {
				var err error
				if c, err = New(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			runtime.GC() // twice: the second frees what Pool victims kept
			runtime.GC()
			runtime.ReadMemStats(&held)
			runtime.KeepAlive(c) // the last use: the next collections free the build
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&freed)
			n := float64(b.N * tenants)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/tenant")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/tenant")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/tenant")
			b.ReportMetric((float64(held.HeapAlloc)-float64(freed.HeapAlloc))/tenants, "live-B/tenant")
		})
	}
}

// raceDetector reports a -race build (see race_test.go).
var raceDetector bool

// TestFleetNewAllocatesWhatItKeeps holds a cold build of BenchmarkFleetNew's
// fleet to at most 1.15 times the heap it leaves live: a tenant's build
// allocates what the tenant keeps (its series, residual pool and state),
// and little garbage beside it, which would set the GC goal and with it
// the build's peak RSS. One P keeps every worker on the Pool shard the
// warm-up left trace scratch in.
func TestFleetNewAllocatesWhatItKeeps(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const tenants = 64
	cfg := DefaultConfig(tenants)
	cfg.Days = 16
	if _, err := New(cfg); err != nil { // warm-up: pooled scratch and instruments
		t.Fatal(err)
	}
	var m0, m1, m2 runtime.MemStats
	runtime.GC() // the second collection frees what Pool victims kept
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(c)
	allocated, live := float64(m1.TotalAlloc-m0.TotalAlloc), float64(m2.HeapAlloc)-float64(m0.HeapAlloc)
	ratio := allocated / live
	t.Logf("New allocated %.0f B per tenant to keep %.0f B: %.2fx", allocated/tenants, live/tenants, ratio)
	if ratio > 1.15 {
		t.Errorf("allocated %.2fx the live heap, want at most 1.15x", ratio)
	}
}

// BenchmarkTenantCheckpoint is what one tenant pays per checkpointed
// round before anything reaches a disk: every component's Save and the
// Extra section into the pooled buffer.
func BenchmarkTenantCheckpoint(b *testing.B) {
	_, tn := benchTenant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tn.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTenantRestore is the decoding half of a warm Start: the Extra
// section, the forecaster loaded into a freshly built strategy, and every
// component blob through restore.
func BenchmarkTenantRestore(b *testing.B) {
	cfg, tn := benchTenant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _ := tn.store.Recover()
		extra, err := decodeExtra(st.Extra)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := buildStrategy(cfg, tn, st.Forecaster, st.Rho); err != nil {
			b.Fatal(err)
		}
		tn.restore(st, &extra)
	}
}

// TestTenantRoundAllocs pins the warm healthy round at one allocation —
// the header of the guard's retained fan, see scaler.Guard.storeLastGood
// — across the plan through the guard (finite check, sanity bound, fan
// retention), every applied step and the grading of the fan. The
// fleet-wide SLO tracker is on, as it is by default; decision records
// are off.
func TestTenantRoundAllocs(t *testing.T) {
	was := obs.DefaultDecisions.Enabled()
	obs.DefaultDecisions.SetEnabled(false)
	t.Cleanup(func() { obs.DefaultDecisions.SetEnabled(was) })
	_, tn := benchTenant(t)
	allocs := testing.AllocsPerRun(10, func() {
		if err := tn.Plan(); err != nil {
			t.Fatal(err)
		}
		if err := tn.Apply(); err != nil {
			t.Fatal(err)
		}
	})
	if n := tn.Guard().DegradedRounds(); n != 0 || !tn.Active() {
		t.Fatalf("premise: %d degraded rounds, active %v; the test wants healthy rounds with replay left", n, tn.Active())
	}
	if allocs > 1 {
		t.Errorf("%v allocs per warm healthy Plan+Apply round, want at most 1", allocs)
	}
}

// fleetRunMallocs is the heap allocations per tenant-round of a warm
// Run: a 64-tenant seasonal-naive fleet at the default shape on one
// worker replays 8 rounds to warm up, then 12 more are measured. Run ends
// with the report, so a Run that replays nothing is measured too and its
// mallocs subtracted.
func fleetRunMallocs(t *testing.T) float64 {
	const tenants, warm, measured = 64, 8, 12
	cfg := DefaultConfig(tenants)
	cfg.Workers, cfg.MaxRounds = 1, warm
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rounds int) uint64 {
		c.cfg.MaxRounds = rounds
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep, err := c.Run(context.Background())
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rounds != rounds {
			t.Fatalf("premise: ran %d rounds, want %d", rep.Rounds, rounds)
		}
		return m1.Mallocs - m0.Mallocs
	}
	run(warm)
	report := run(warm)
	rounds := run(warm + measured)
	return float64(rounds-report) / (tenants * measured)
}

// TestFleetRunAllocs pins a warm fleet round's allocations per
// tenant-round: the guard's retained fan header (see
// TestTenantRoundAllocs), the two stage closures each round hands the
// worker pool (2/64 ≈ 0.03) and the rare map growth of the one fleet
// latency sketch; it reads 1.03–1.05. While every tenant kept a latency
// sketch of its own, whose map grew as new buckets appeared, the same Run
// read 1.24–1.43.
func TestFleetRunAllocs(t *testing.T) {
	was := obs.DefaultDecisions.Enabled()
	obs.DefaultDecisions.SetEnabled(false)
	t.Cleanup(func() { obs.DefaultDecisions.SetEnabled(was) })
	if got := fleetRunMallocs(t); got > 1.06 {
		t.Errorf("%.4f mallocs per warm tenant-round, want at most 1.06", got)
	}
}
