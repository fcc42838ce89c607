package fleet

import (
	"testing"

	"robustscale/internal/scaler"
)

// FuzzAdmission hammers the admission-control arithmetic with arbitrary
// demand vectors and capacities. Three invariants must never break:
// admitted totals never exceed the pool, no tenant is admitted below
// zero or above its demand, and a higher-priority class is only clipped
// after every lower-priority class has been shed to zero.
func FuzzAdmission(f *testing.F) {
	f.Add(10, []byte{5, 5, 5, 5})
	f.Add(0, []byte{1, 2, 3})
	f.Add(-3, []byte{200, 0, 7})
	f.Add(1<<30, []byte{255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, capacity int, raw []byte) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		demands := make([]int, len(raw))
		for i, b := range raw {
			// Mix in sign and scale so the fuzzer reaches negatives and
			// values near the overflow clamp.
			d := int(b) * (1 << (uint(i) % 24))
			if i%5 == 3 {
				d = -d
			}
			demands[i] = d
		}
		classes := classesFor(len(demands))
		got := admitStep(demands, classes, capacity, nil)

		cap64 := int64(capacity)
		if cap64 < 0 {
			cap64 = 0
		}
		if cap64 > maxDemand {
			cap64 = maxDemand
		}
		var total int64
		for i, a := range got {
			d := int64(demands[i])
			if d < 0 {
				d = 0
			}
			if d > maxDemand {
				d = maxDemand
			}
			if int64(a) < 0 {
				t.Fatalf("admitted[%d] = %d below zero (demands=%v capacity=%d)", i, a, demands, capacity)
			}
			if int64(a) > d {
				t.Fatalf("admitted[%d] = %d above demand %d (capacity=%d)", i, a, d, capacity)
			}
			total += int64(a)
		}
		if total > cap64 {
			t.Fatalf("admitted total %d exceeds capacity %d (demands=%v)", total, cap64, demands)
		}

		// Priority order: if any member of a class was clipped, every
		// lower-priority class must be fully zeroed.
		clipped := [3]bool{}
		nonzero := [3]bool{}
		for i, a := range got {
			d := int64(demands[i])
			if d < 0 {
				d = 0
			}
			if d > maxDemand {
				d = maxDemand
			}
			c := classes[i]
			if int64(a) < d {
				clipped[c] = true
			}
			if a > 0 {
				nonzero[c] = true
			}
		}
		for c := ClassGuaranteed; c <= ClassBestEffort; c++ {
			if !clipped[c] {
				continue
			}
			for lower := c + 1; lower <= ClassBestEffort; lower++ {
				if nonzero[lower] {
					t.Fatalf("class %v clipped while class %v still holds nodes: demands=%v capacity=%d admitted=%v",
						c, lower, demands, capacity, got)
				}
			}
		}
	})
}

// FuzzWakeSchedule drives a small fleet of park/wake state machines with
// arbitrary round scripts — demand on/off, wake success/failure,
// forced storm wakes — and checks the wake-robustness invariants:
//
//  1. the shaped plan never contains a negative allocation, no matter
//     what sequence of parks, wakes, breaker trips and storms preceded it;
//  2. shaped plans pushed through shared-pool admission never admit past
//     the pool budget, even when a storm force-wakes every guard at once;
//  3. the machine always converges out of parked under sustained demand
//     with healthy wakes — no script can wedge a tenant at zero forever.
func FuzzWakeSchedule(f *testing.F) {
	f.Add([]byte{0x00, 0xff, 0x03, 0x81})
	f.Add([]byte{0x07, 0x07, 0x07, 0x40, 0x40, 0x40})
	f.Add([]byte{0xc1, 0xc1, 0xc1, 0xc1, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 128 {
			return
		}
		const tenants = 3
		const pool = 4
		guards := make([]*scaler.WakeGuard, tenants)
		for i := range guards {
			guards[i] = &scaler.WakeGuard{Config: scaler.WakeGuardConfig{
				MinIdleRounds:         2,
				WakeDebounceRounds:    2,
				KeepWarmAfterFails:    2,
				BreakerCooldownRounds: 3,
			}}
		}
		classes := classesFor(tenants)
		for _, b := range script {
			// Bit layout per round byte: low 3 bits pick which guards see
			// demand, bit 6 reports the round's wake result, bit 7 fires a
			// correlated storm that force-wakes every guard.
			storm := b&0x80 != 0
			wakeOK := b&0x40 != 0
			demands := make([]int, tenants)
			for i, g := range guards {
				idle := b&(1<<uint(i)) == 0
				plan := []int{int(b >> 3 & 0x07)}
				g.Shape(plan, idle)
				if plan[0] < 0 {
					t.Fatalf("guard %d shaped a negative allocation %d (byte %#x)", i, plan[0], b)
				}
				if storm {
					g.ForceWake()
					if plan[0] < 1 {
						plan[0] = 1
					}
				}
				demands[i] = plan[0]
			}
			admitted := admitStep(demands, classes, pool, nil)
			var total int
			for i, a := range admitted {
				if a < 0 {
					t.Fatalf("admission emitted negative allocation %d for guard %d", a, i)
				}
				total += a
			}
			if total > pool {
				t.Fatalf("storm wake admitted %d nodes past pool budget %d (demands=%v)", total, pool, demands)
			}
			for _, g := range guards {
				if !g.Parked() {
					g.OnWakeResult(wakeOK)
				}
			}
		}

		// Convergence: sustained demand with healthy wakes must bring every
		// guard out of parked (and close any open breaker) within the sum
		// of the configured hysteresis windows, regardless of prior state.
		const bound = 16 // cooldown + debounce + fail threshold, with slack
		for round := 0; round < bound; round++ {
			done := true
			for _, g := range guards {
				plan := []int{3}
				g.Shape(plan, false)
				if plan[0] < 0 {
					t.Fatalf("convergence round %d shaped negative allocation", round)
				}
				if !g.Parked() {
					g.OnWakeResult(true)
				}
				if g.Parked() || g.BreakerOpen() {
					done = false
				}
			}
			if done {
				return
			}
		}
		for i, g := range guards {
			if g.Parked() || g.BreakerOpen() {
				t.Fatalf("guard %d wedged after %d rounds of sustained demand: parked=%v breaker=%v script=%x",
					i, bound, g.Parked(), g.BreakerOpen(), script)
			}
		}
	})
}
