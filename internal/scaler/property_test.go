package scaler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"robustscale/internal/forecast"
	"robustscale/internal/timeseries"
)

// TestRobustMonotoneInTauProperty: a more conservative quantile level
// never allocates fewer nodes, for any forecaster whose quantiles are
// monotone in the level (all sane forecasters).
func TestRobustMonotoneInTauProperty(t *testing.T) {
	f := func(baseRaw uint16, spreadRaw uint8, tauPairRaw uint8) bool {
		base := 10 + float64(baseRaw%500)
		spread := float64(spreadRaw) / 255 // 0..1
		lo := 0.55 + 0.2*float64(tauPairRaw%8)/8
		hi := lo + 0.2
		qf := &fakeQF{Base: []float64{base, base * 1.5}, Spread: []float64{spread, spread}}
		planLo, err := PlanRound(&Robust{Forecaster: qf, Tau: lo, Theta: 10}, series(1), 2, nil)
		if err != nil {
			return false
		}
		planHi, err := PlanRound(&Robust{Forecaster: qf, Tau: hi, Theta: 10}, series(1), 2, nil)
		if err != nil {
			return false
		}
		for i := range planLo {
			if planHi[i] < planLo[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRobustPlanMonotoneInTau runs Robust over the fans of fitted naive
// and seasonal-naive models at several origins: raising tau through the
// scaling levels never lowers the plan at any step.
func TestRobustPlanMonotoneInTau(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 600)
	for i := range vals {
		vals[i] = 60 + 25*math.Sin(2*math.Pi*float64(i)/144) + 8*rng.NormFloat64()
	}
	s := series(vals...)
	const h = 12
	for _, f := range []forecast.QuantileForecaster{forecast.NewNaive(h), forecast.NewSeasonalNaive(144)} {
		if err := f.Fit(s.Slice(0, 400)); err != nil {
			t.Fatal(err)
		}
		for origin := 400; origin+h <= s.Len(); origin += 37 {
			history := s.Slice(0, origin)
			var lo, prev []int
			for _, tau := range []float64{0.5, 0.7, 0.9, 0.95, 0.99} {
				plan := robustPlan(t, f, tau, history, h)
				for i := range prev {
					if plan[i] < prev[i] {
						t.Errorf("%s origin %d step %d: tau %v plans %d nodes, below the previous level's %d",
							f.Name(), origin, i, tau, plan[i], prev[i])
					}
				}
				if lo == nil {
					lo = plan
				}
				prev = plan
			}
			if sum(prev) <= sum(lo) {
				t.Errorf("%s origin %d: tau 0.99 plans %d node-steps, tau 0.5 %d; the fan has no spread to test",
					f.Name(), origin, sum(prev), sum(lo))
			}
		}
	}
}

func robustPlan(t *testing.T, f forecast.QuantileForecaster, tau float64, history *timeseries.Series, h int) []int {
	t.Helper()
	plan, err := PlanRound(&Robust{Forecaster: f, Tau: tau, Theta: 10}, history, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// TestAdaptiveBoundedByEndpointsProperty: the adaptive plan never leaves
// the envelope of its two fixed-quantile endpoint plans.
func TestAdaptiveBoundedByEndpointsProperty(t *testing.T) {
	f := func(baseRaw uint16, s1Raw, s2Raw, rhoRaw uint8) bool {
		base := 50 + float64(baseRaw%500)
		qf := &fakeQF{
			Base:   []float64{base, base},
			Spread: []float64{float64(s1Raw) / 128, float64(s2Raw) / 128},
		}
		rho := float64(rhoRaw) * 2
		tau1, tau2 := 0.6, 0.95
		adaptive, err := PlanRound(&Adaptive{Forecaster: qf, Tau1: tau1, Tau2: tau2, Rho: rho, Theta: 10}, series(1), 2, nil)
		if err != nil {
			return false
		}
		loPlan, err := PlanRound(&Robust{Forecaster: qf, Tau: tau1, Theta: 10}, series(1), 2, nil)
		if err != nil {
			return false
		}
		hiPlan, err := PlanRound(&Robust{Forecaster: qf, Tau: tau2, Theta: 10}, series(1), 2, nil)
		if err != nil {
			return false
		}
		for i := range adaptive {
			if adaptive[i] < loPlan[i] || adaptive[i] > hiPlan[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
