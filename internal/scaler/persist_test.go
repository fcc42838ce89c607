package scaler

import (
	"bytes"
	"testing"

	"robustscale/internal/forecast"
)

func TestGuardSaveLoadRoundTrip(t *testing.T) {
	g := &Guard{
		Inner:  &ReactiveMax{Window: 4, Theta: 5},
		Config: GuardConfig{Theta: 5},
	}
	g.mode = ModeLastKnownGood
	g.lastReason = "forecaster error: injected"
	g.degradedRounds = 7
	g.lastGoodFan = &forecast.QuantileForecast{
		Levels: []float64{0.1, 0.5, 0.9},
		Mean:   []float64{10, 11},
		Values: [][]float64{{8, 10, 12}, {9, 11, 13}},
	}

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := &Guard{Inner: &ReactiveMax{Window: 4, Theta: 5}, Config: GuardConfig{Theta: 5}}
	if err := g2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if g2.Mode() != ModeLastKnownGood || g2.LastReason() != g.lastReason || g2.DegradedRounds() != 7 {
		t.Fatalf("restored guard: mode=%v reason=%q rounds=%d", g2.Mode(), g2.LastReason(), g2.DegradedRounds())
	}
	fan := g2.lastGoodFan
	if fan == nil || fan.Horizon() != 2 || fan.At(1, 0.9) != 13 {
		t.Fatalf("restored fan: %+v", fan)
	}
}

func TestGuardLoadRejectsBadMode(t *testing.T) {
	g := &Guard{Inner: &ReactiveMax{Window: 4, Theta: 5}}
	g.mode = ModeRepair
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the mode by saving a guard with an out-of-range value.
	g.mode = DegradationMode(42)
	var bad bytes.Buffer
	if err := g.Save(&bad); err != nil {
		t.Fatal(err)
	}
	g2 := &Guard{Inner: &ReactiveMax{Window: 4, Theta: 5}}
	if err := g2.Load(&bad); err == nil {
		t.Error("out-of-range mode should fail")
	}
	if err := g2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if g2.Mode() != ModeRepair {
		t.Fatalf("mode = %v, want repair", g2.Mode())
	}
}

func TestBreakerSaveLoadRoundTrip(t *testing.T) {
	b := &Breaker{Threshold: 2, Cooldown: 3}
	b.Failure()
	b.Failure() // second consecutive failure opens it
	b.Tick()
	if b.State() != BreakerOpen {
		t.Fatalf("setup: breaker %v, want open", b.State())
	}

	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b2 := &Breaker{Threshold: 2, Cooldown: 3}
	if err := b2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if b2.State() != BreakerOpen || b2.Trips() != 1 {
		t.Fatalf("restored breaker %v after %d trips, want open after 1", b2.State(), b2.Trips())
	}
	// The cooldown continues where it was saved: one of three ticks is
	// spent, the second keeps it open, the third ends it.
	if b2.Tick() != BreakerOpen {
		t.Error("restored breaker left its cooldown a tick early")
	}
	if b2.Tick() != BreakerHalfOpen {
		t.Fatalf("after the cooldown: %v, want half-open", b2.State())
	}
}

func TestBreakerLoadRejectsGarbage(t *testing.T) {
	b := &Breaker{}
	if err := b.Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage should fail")
	}
}
