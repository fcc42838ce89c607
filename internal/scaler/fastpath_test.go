package scaler

import (
	"errors"
	"math"
	"testing"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/timeseries"
)

// fastpathSeries is a diurnal workload with enough history to fit the
// real forecasters the fast path specializes for.
func fastpathSeries(n int) *timeseries.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 60 + 25*math.Sin(2*math.Pi*float64(i)/24) + 3*math.Sin(float64(i))
	}
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	return timeseries.New("fastpath", start, 10*time.Minute, vals)
}

func smallWarmDeepAR(t testing.TB, train *timeseries.Series) *forecast.DeepAR {
	t.Helper()
	m := forecast.NewDeepAR(forecast.DeepARConfig{
		Context: 24, Hidden: 8, Epochs: 2, LR: 5e-3, Seed: 3,
		MaxWindows: 48, Samples: 20, TrainHorizon: 12,
	})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	return m
}

// fleetStack is the stack every fleet tenant runs by default: the guard
// over the robust strategy over seasonal-naive.
func fleetStack(t testing.TB, train *timeseries.Series) *Guard {
	t.Helper()
	f := forecast.NewSeasonalNaive(24)
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	return &Guard{
		Inner:  &Robust{Forecaster: f, Tau: 0.9, Theta: 10},
		Config: GuardConfig{Theta: 10, Tau: 0.9},
	}
}

// cold hides a forecaster's incremental interface, so a strategy over it
// forecasts every round from scratch: the reference the warm path must
// reproduce.
type cold struct{ forecast.QuantileForecaster }

// TestPlanIntoMatchesPlan drives twin strategy stacks over a sliding
// shared-array history — the reference over a cold forecaster into a
// fresh buffer, the other over the warm forecaster into a reused one —
// and requires identical plans every round. This is the strategy-level
// face of the warm/cold bit-identity contract.
func TestPlanIntoMatchesPlan(t *testing.T) {
	s := fastpathSeries(400)
	train := s.Slice(0, 300)

	cases := []struct {
		name string
		make func(qf forecast.QuantileForecaster) Strategy
	}{
		{"reactive-max", func(forecast.QuantileForecaster) Strategy {
			return &ReactiveMax{Window: 6, Theta: 10}
		}},
		{"reactive-avg", func(forecast.QuantileForecaster) Strategy {
			return &ReactiveAvg{Window: 6, HalfLife: 6, Theta: 10}
		}},
		{"robust-deepar", func(qf forecast.QuantileForecaster) Strategy {
			return &Robust{Forecaster: qf, Tau: 0.9, Theta: 10}
		}},
		{"adaptive-deepar", func(qf forecast.QuantileForecaster) Strategy {
			return &Adaptive{Forecaster: qf, Tau1: 0.8, Tau2: 0.95, Rho: 5, Theta: 10}
		}},
		{"guard-robust", func(qf forecast.QuantileForecaster) Strategy {
			return &Guard{
				Inner:  &Robust{Forecaster: qf, Tau: 0.9, Theta: 10},
				Config: GuardConfig{Theta: 10, Tau: 0.9},
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref, warm := tc.make(cold{smallWarmDeepAR(t, train)}), tc.make(smallWarmDeepAR(t, train))
			var buf []int
			for _, origin := range []int{310, 311, 312, 315, 318, 330} {
				hist := s.Slice(0, origin)
				want, err := PlanRound(ref, hist, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := PlanRound(warm, hist, 4, buf)
				if err != nil {
					t.Fatal(err)
				}
				buf = got
				if len(want) != len(got) {
					t.Fatalf("origin %d: plan lengths %d vs %d", origin, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("origin %d step %d: cold %d != warm %d (%v vs %v)",
							origin, i, want[i], got[i], want, got)
					}
				}
			}
		})
	}
}

// TestPlanIntoMatchesPlanThroughDegradation exercises the guard's
// fallback ladder over a warm forecaster: twin guarded stacks, one cold
// and one warm, degrade while their inner strategy errors, recover when
// it plans again, and agree with each other bit-for-bit the whole way —
// including the rounds right after recovery, where warm forecasters
// recondition.
func TestPlanIntoMatchesPlanThroughDegradation(t *testing.T) {
	s := fastpathSeries(400)
	train := s.Slice(0, 300)
	healthy := true
	mk := func(qf forecast.QuantileForecaster) *Guard {
		return &Guard{
			Inner:  &erring{Strategy: &Robust{Forecaster: qf, Tau: 0.9, Theta: 10}, healthy: &healthy},
			Config: GuardConfig{Theta: 10, Tau: 0.9},
		}
	}
	ref, warm := mk(cold{smallWarmDeepAR(t, train)}), mk(smallWarmDeepAR(t, train))
	var buf []int
	degraded := false
	for round, origin := 0, 310; origin < 330; round, origin = round+1, origin+1 {
		healthy = round < 5 || round >= 12
		hist := s.Slice(0, origin)
		want, err := PlanRound(ref, hist, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PlanRound(warm, hist, 4, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = got
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("round %d (healthy=%v) step %d: cold %d != warm %d",
					round, healthy, i, want[i], got[i])
			}
		}
		if warm.Mode() != ref.Mode() {
			t.Fatalf("round %d: guard modes diverged: %v vs %v", round, ref.Mode(), warm.Mode())
		}
		if warm.Mode() != ModeNormal {
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("inner errors never degraded the guard; test exercised nothing")
	}
}

// erring fails every round while *healthy is false, as a forecaster
// error would, and otherwise plans with the strategy it wraps.
type erring struct {
	Strategy
	healthy *bool
}

func (e *erring) PlanInto(history *timeseries.Series, h int, dst []int) (Round, error) {
	if !*e.healthy {
		return Round{}, errors.New("forced degradation")
	}
	return e.Strategy.PlanInto(history, h, dst)
}

// TestPlanRoundAllocs is the allocation contract the CI gate enforces:
// a steady-state planning round is allocation-free for the reactive rules
// (bare and guard-wrapped), one object for the fleet's guarded stack (the
// header of the retained fan, see Guard.storeLastGood), and stays within a
// small fixed budget for the warm DeepAR robust stack (pooled sample
// matrices, reused fan and plan).
func TestPlanRoundAllocs(t *testing.T) {
	s := fastpathSeries(400)
	hist := s.Slice(0, 350)

	check := func(name string, limit float64, h int, strat Strategy) {
		var buf []int
		var err error
		// Warm caches and scratch buffers are grown outside the
		// measurement, as in the daemon's steady state.
		for i := 0; i < 3; i++ {
			if buf, err = PlanRound(strat, hist, h, buf); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if buf, err = PlanRound(strat, hist, h, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("%s: %v allocs per steady-state round, budget %v", name, allocs, limit)
		}
	}

	check("reactive-max", 0, 1, &ReactiveMax{Window: 6, Theta: 10})
	check("reactive-avg", 0, 1, &ReactiveAvg{Window: 6, HalfLife: 6, Theta: 10})
	check("guard-reactive-max", 0, 1, &Guard{
		Inner:  &ReactiveMax{Window: 6, Theta: 10},
		Config: GuardConfig{Theta: 10, Tau: 0.9},
	})
	train := s.Slice(0, 300)
	check("guard-robust-seasonal-naive", 1, 12, fleetStack(t, train))
	check("robust-deepar-warm", 24, 1, &Robust{Forecaster: smallWarmDeepAR(t, train), Tau: 0.9, Theta: 10})
}

// TestGuardRoundIndependentOfHistoryLength: a guarded round costs the
// observations that arrived since the last one, not the history. The
// 16-day row of BenchmarkGuardAdvance must stay within 1.25x of the 2-day
// row (1.6x when every round rescanned the whole history). Trials are
// interleaved and reduced to their minimum, and a noisy attempt is
// repeated, because interference only ever adds time.
func TestGuardRoundIndependentOfHistoryLength(t *testing.T) {
	const rounds = 20000
	trial := func(days int) time.Duration {
		g, s := advanceStack(t, days)
		advanceOrigin(t, g, s, days, 8)
		start := time.Now()
		advanceOrigin(t, g, s, days, rounds)
		return time.Since(start)
	}
	var ratio float64
	for attempt := 0; attempt < 4; attempt++ {
		short, long := trial(2), trial(16)
		for i := 0; i < 4; i++ {
			short, long = min(short, trial(2)), min(long, trial(16))
		}
		ratio = float64(long) / float64(short)
		if ratio <= 1.25 && ratio >= 0.8 {
			return
		}
	}
	t.Errorf("16-day history costs %.2fx a 2-day history per guarded round, want within 1.25x", ratio)
}
