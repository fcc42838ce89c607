package scaler

import (
	"testing"

	"robustscale/internal/timeseries"
)

// BenchmarkPlanRound measures one steady-state planning round (horizon 1,
// the high-frequency reactive cadence) per strategy stack. The history
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
	const h = 1

	// reuse = false is the one-shot caller: a fresh plan buffer per round.
	run := func(b *testing.B, strat Strategy, reuse bool) {
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
		run(b, &ReactiveMax{Window: 6, Theta: 10}, true)
	})
	b.Run("reactive-avg", func(b *testing.B) {
		run(b, &ReactiveAvg{Window: 6, HalfLife: 6, Theta: 10}, true)
	})
	b.Run("guard-reactive-max", func(b *testing.B) {
		run(b, &Guard{
			Inner:  &ReactiveMax{Window: 6, Theta: 10},
			Config: GuardConfig{Theta: 10, Tau: 0.9},
		}, true)
	})
	b.Run("deepar-cold", func(b *testing.B) {
		run(b, &Robust{Forecaster: cold{smallWarmDeepAR(b, train)}, Tau: 0.9, Theta: 10}, false)
	})
	b.Run("deepar-warm", func(b *testing.B) {
		run(b, &Robust{Forecaster: smallWarmDeepAR(b, train), Tau: 0.9, Theta: 10}, true)
	})
}
