package scaler

import (
	"fmt"
	"testing"

	"robustscale/internal/timeseries"
)

// BenchmarkPlanRound measures one steady-state planning round (horizon 1,
// the high-frequency reactive cadence; horizon 12 for the fleet's stack,
// guard-robust-seasonal-naive) per strategy stack. The history
// view is reused across iterations like the daemon's control loop, so the
// reactive sub-benchmarks are allocation-free and the deepar-warm one
// exercises the incremental forecaster rather than reconditioning;
// deepar-cold hides that interface, so every round reconditions.
//
// scripts/bench_plan_round.sh gates CI on these numbers: allocs/op must
// match BENCH_plan_round.json exactly, ns/op must stay within tolerance,
// and deepar-warm must beat deepar-cold by the committed ratio.
func BenchmarkPlanRound(b *testing.B) {
	s := fastpathSeries(400)
	train := s.Slice(0, 300)
	const origin = 350

	// reuse = false is the one-shot caller: a fresh plan buffer per round.
	run := func(b *testing.B, strat Strategy, h int, reuse bool) {
		view := &timeseries.Series{Name: s.Name, Start: s.Start, Step: s.Step}
		view.Values = s.Values[:origin]
		var buf []int
		// The first two rounds prime scratch buffers and warm caches outside
		// the timed region, as in the daemon's steady state.
		for i := -2; i < b.N; i++ {
			if i == 0 {
				b.ReportAllocs()
				b.ResetTimer()
			}
			round, err := strat.PlanInto(view, h, buf)
			if err != nil {
				b.Fatal(err)
			}
			if reuse {
				buf = round.Nodes
			}
		}
	}

	b.Run("reactive-max", func(b *testing.B) {
		run(b, &ReactiveMax{Window: 6, Theta: 10}, 1, true)
	})
	b.Run("reactive-avg", func(b *testing.B) {
		run(b, &ReactiveAvg{Window: 6, HalfLife: 6, Theta: 10}, 1, true)
	})
	b.Run("guard-reactive-max", func(b *testing.B) {
		run(b, &Guard{
			Inner:  &ReactiveMax{Window: 6, Theta: 10},
			Config: GuardConfig{Theta: 10, Tau: 0.9},
		}, 1, true)
	})
	b.Run("guard-robust-seasonal-naive", func(b *testing.B) {
		run(b, fleetStack(b, train), 12, true)
	})
	b.Run("deepar-cold", func(b *testing.B) {
		run(b, &Robust{Forecaster: cold{smallWarmDeepAR(b, train)}, Tau: 0.9, Theta: 10}, 1, false)
	})
	b.Run("deepar-warm", func(b *testing.B) {
		run(b, &Robust{Forecaster: smallWarmDeepAR(b, train), Tau: 0.9, Theta: 10}, 1, true)
	})
}

// advanceLap is how many rounds advanceOrigin grows its history before
// lapping back to the start: one from-scratch rescan per lap.
const advanceLap = 4096

// advanceStack is the fleet's stack and a series long enough for one lap
// of advanceOrigin from days of history.
func advanceStack(tb testing.TB, days int) (*Guard, *timeseries.Series) {
	s := fastpathSeries(days*144 + advanceLap)
	return fleetStack(tb, s.Slice(0, 288)), s
}

// advanceOrigin plans n rounds at horizon 12 through g, the history
// starting at days of observations and growing by one a round — what a
// replay does, and what the steady-state rows above (one fixed history)
// cannot see: work that grows with the history.
func advanceOrigin(tb testing.TB, g *Guard, s *timeseries.Series, days, n int) {
	view := &timeseries.Series{Name: s.Name, Start: s.Start, Step: s.Step}
	var buf []int
	for i := 0; i < n; i++ {
		view.Values = s.Values[:days*144+i%advanceLap]
		round, err := g.PlanInto(view, 12, buf)
		if err != nil {
			tb.Fatal(err)
		}
		buf = round.Nodes
	}
}

// BenchmarkGuardAdvance is the fleet's stack over an advancing origin at
// two history lengths; TestGuardRoundIndependentOfHistoryLength holds the
// two rows together.
func BenchmarkGuardAdvance(b *testing.B) {
	for _, days := range []int{2, 16} {
		b.Run(fmt.Sprintf("%dd", days), func(b *testing.B) {
			g, s := advanceStack(b, days)
			b.ReportAllocs()
			b.ResetTimer()
			advanceOrigin(b, g, s, days, b.N)
		})
	}
}
