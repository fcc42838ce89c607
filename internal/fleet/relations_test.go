package fleet

import (
	"context"
	"fmt"
	"testing"
)

// Metamorphic relations of the fleet round: properties that hold by
// construction, checked by running the same tenants under two settings
// that must not tell them apart.

// relationSeeds are the master seeds every relation runs over; the first
// is DefaultConfig's.
var relationSeeds = []int64{42, 7, 1234}

// runTenants runs cfg, which keeps DefaultConfig's per-tenant records, to
// completion.
func runTenants(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep := runFleet(t, cfg)
	if len(rep.PerTenant) != cfg.Tenants {
		t.Fatalf("%d per-tenant records for %d tenants", len(rep.PerTenant), cfg.Tenants)
	}
	return rep
}

// TestRelationIsolation: without a pool or fleet-level chaos a tenant's
// decisions are its own, so t00000 reads the same record in fleets of 1,
// 2 and 200 tenants. At the default config that record is pinned.
func TestRelationIsolation(t *testing.T) {
	for _, seed := range relationSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var want TenantReport
			for _, n := range []int{1, 2, 200} {
				cfg := DefaultConfig(n)
				cfg.Seed = seed
				got := runTenants(t, cfg).PerTenant[0]
				if n == 1 {
					want = got
				} else if got != want {
					t.Errorf("t00000 in a fleet of %d:\n%+v\nalone:\n%+v", n, got, want)
				}
			}
			if seed == 42 && (want.AllocHash != "2228e9003954db22" || want.Violations != 0 || want.CostNodeSteps != 869) {
				t.Errorf("t00000 at the default config: alloc hash %s, %d violations, %d node-steps; want 2228e9003954db22, 0, 869",
					want.AllocHash, want.Violations, want.CostNodeSteps)
			}
		})
	}
}

// TestRelationPool: a pool no smaller than the peak sum of the unclipped
// plans admits every plan whole, so the fleet is bit-identical to one
// with no pool. One node less clips some round, so the peak is exact.
func TestRelationPool(t *testing.T) {
	const tenants = 40
	for _, seed := range relationSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := DefaultConfig(tenants)
			cfg.Seed, cfg.Workers = seed, 1 // OnStep below sums into one map
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			demand := map[int]int{} // series step -> the fleet's planned nodes
			for _, tn := range c.Tenants() {
				tn.OnStep = func(st Step) { demand[st.Index] += st.Plan[st.I] }
			}
			free, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			peak := 0
			for _, d := range demand {
				peak = max(peak, d)
			}
			cfg.PoolNodes = peak
			pooled := runTenants(t, cfg)
			if pooled.Pool == nil || pooled.Pool.AdmissionClips != 0 {
				t.Fatalf("pool of the peak %d: %+v, want no clip", peak, pooled.Pool)
			}
			if pooled.FleetHash != free.FleetHash {
				t.Errorf("pool of the peak %d: fleet hash %s, no pool %s", peak, pooled.FleetHash, free.FleetHash)
			}
			for i, tr := range pooled.PerTenant {
				tr.Class = "" // reported only with a pool
				if tr != free.PerTenant[i] {
					t.Errorf("pool of the peak %d:\n%+v\nno pool:\n%+v", peak, tr, free.PerTenant[i])
				}
			}
			cfg.PoolNodes = peak - 1
			if tight := runTenants(t, cfg); tight.Pool.AdmissionClips == 0 {
				t.Errorf("pool of %d, one under the peak, clipped nothing", peak-1)
			}
		})
	}
}
