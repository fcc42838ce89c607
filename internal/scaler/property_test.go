package scaler

import (
	"math"
	"testing"
	"testing/quick"
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

// TestRateLimitedDeltaProperty: a rate-limited plan never changes the node
// count by more than MaxDelta per step, for arbitrary demand paths.
func TestRateLimitedDeltaProperty(t *testing.T) {
	f := func(seed int64, deltaRaw uint8) bool {
		maxDelta := 1 + int(deltaRaw)%5
		rng := newDeterministicRand(seed)
		h := 3 + int(rng()%10)
		base := make([]float64, h)
		spread := make([]float64, h)
		for i := range base {
			base[i] = math.Abs(float64(int64(rng()%4000))) / 10
			spread[i] = 0
		}
		qf := &fakeQF{Base: base, Spread: spread}
		rl := &RateLimited{Inner: &Robust{Forecaster: qf, Tau: 0.9, Theta: 10}, MaxDelta: maxDelta}
		plan, err := PlanRound(rl, series(1), h, nil)
		if err != nil {
			return false
		}
		prev := 1
		for _, c := range plan {
			d := c - prev
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// newDeterministicRand is a tiny xorshift so the property above controls
// its own sequence without importing math/rand state.
func newDeterministicRand(seed int64) func() uint64 {
	s := uint64(seed)*2654435761 + 1
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}
