package scaler

import (
	"bytes"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"robustscale/internal/forecast"
	"robustscale/internal/wire"
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

// TestGuardLoadRejectsUnusableFan: a guard blob whose retained fan the
// last-known-good rung cannot plan from is refused, with the offending
// field named, so the next failing round falls to the reactive rung
// instead of panicking in the fan's quantile lookup.
func TestGuardLoadRejectsUnusableFan(t *testing.T) {
	levels, mean := []float64{0.1, 0.5, 0.9}, []float64{10, 11}
	rows := [][]float64{{8, 10, 12}, {9, 11, 13}}
	for _, c := range []struct {
		name, want string
		fan        forecast.QuantileForecast
	}{
		{"no levels", "levels", forecast.QuantileForecast{Mean: mean, Values: [][]float64{{}, {}}}},
		{"rows but no levels", "levels", forecast.QuantileForecast{Mean: mean, Values: rows}},
		{"unsorted levels", "levels", forecast.QuantileForecast{Levels: []float64{0.9, 0.5, 0.1}, Mean: mean, Values: rows}},
		{"level at 1", "levels", forecast.QuantileForecast{Levels: []float64{0.1, 0.5, 1}, Mean: mean, Values: rows}},
		{"NaN level", "levels", forecast.QuantileForecast{Levels: []float64{0.1, math.NaN(), 0.9}, Mean: mean, Values: rows}},
		{"narrow row", "step 1", forecast.QuantileForecast{Levels: levels, Mean: mean, Values: [][]float64{{8, 10, 12}, {9, 11}}}},
		{"wide row", "step 0", forecast.QuantileForecast{Levels: levels, Mean: mean, Values: [][]float64{{8, 10, 12, 14}, {9, 11, 13}}}},
		{"short mean", "mean", forecast.QuantileForecast{Levels: levels, Mean: mean[:1], Values: rows}},
	} {
		t.Run(c.name, func(t *testing.T) {
			saved := &Guard{mode: ModeLastKnownGood, lastGoodFan: &c.fan}
			var buf bytes.Buffer
			if err := saved.Save(&buf); err != nil {
				t.Fatal(err)
			}
			g, _ := newGuarded(&guardQF{fakeQF: flatBase(30, 2), fail: true}, 10)
			if err := g.Load(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Load = %v, want an error naming the %s", err, c.want)
			}
			if _, err := g.PlanInto(series(10, 12, 11, 10), 2, nil); err != nil {
				t.Fatal(err)
			}
			if g.Mode() != ModeReactive {
				t.Errorf("a failing round after the refused load planned in mode %v, want reactive", g.Mode())
			}
		})
	}
}

// FuzzGuardLoad loads arbitrary bytes into a guard and, whenever a load
// is accepted, plans one round whose forecaster fails, so the fallback
// ladder starts from what was restored: it must not panic. The seeds are
// TestComponentBlobs' guard golden (internal/fleet), a guard in
// last-known-good mode with a two-step fan, and its first half.
func FuzzGuardLoad(f *testing.F) {
	golden, err := hex.DecodeString("0416666f7265636173746572206572726f723a20626f6f6d0202000000000000e03fcdccccccccccec3f02000000000000084000000000000010400202000000000000084000000000000012400200000000000010400000000000001640")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Fuzz(func(t *testing.T, blob []byte) {
		g, _ := newGuarded(&guardQF{fakeQF: flatBase(30, 3), fail: true}, 10)
		if g.Load(bytes.NewReader(blob)) == nil {
			_, _ = g.PlanInto(series(10, 12, 11, 10), 3, nil) // an error is a fine outcome
		}
	})
}

func TestBreakerSaveLoadRoundTrip(t *testing.T) {
	b := &Breaker{Cooldown: 3}
	for range BreakerThreshold {
		b.Failure() // the last consecutive failure opens it
	}
	b.Tick()
	if b.State() != BreakerOpen {
		t.Fatalf("setup: breaker %v, want open", b.State())
	}

	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b2 := &Breaker{Cooldown: 3}
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

// TestBreakerLoadRefusesUnreachable: Load accepts exactly the positions
// the machine can reach and leaves the breaker as it was on a refusal.
func TestBreakerLoadRefusesUnreachable(t *testing.T) {
	for _, c := range []struct {
		name                         string
		state, failures, left, trips int64
		ok                           bool
	}{
		{"closed clean", 0, 0, 0, 0, true},
		{"closed on a streak", 0, BreakerThreshold - 1, 0, 4, true},
		{"open", 1, BreakerThreshold, 2, 1, true},
		{"reopened after a failed probe", 1, BreakerThreshold + 1, 6, 2, true},
		{"half-open", 2, BreakerThreshold, 0, 1, true},
		{"closed at the threshold", 0, BreakerThreshold, 0, 1, false},
		{"closed with 7 failures", 0, 7, 0, 0, false},
		{"closed with cooldown left", 0, 0, 1, 0, false},
		{"open below the threshold", 1, BreakerThreshold - 1, 2, 1, false},
		{"open without a trip", 1, BreakerThreshold, 2, 0, false},
		{"open without cooldown left", 1, BreakerThreshold, 0, 1, false},
		{"half-open below the threshold", 2, 0, 0, 1, false},
		{"half-open without a trip", 2, BreakerThreshold, 0, 0, false},
		{"half-open with cooldown left", 2, BreakerThreshold, 1, 1, false},
		{"unknown state", 3, BreakerThreshold, 0, 1, false},
		{"negative failures", 0, -1, 0, 0, false},
		{"negative cooldown", 1, BreakerThreshold, -1, 1, false},
		{"negative trips", 1, BreakerThreshold, 2, -1, false},
	} {
		b := &Breaker{}
		b.Failure() // a position a refused blob must not overwrite
		blob := bytes.NewReader(wire.AppendVarints(nil, c.state, c.failures, c.left, c.trips))
		if err := b.Load(blob); (err == nil) != c.ok {
			t.Errorf("%s: Load error %v, want accepted %v", c.name, err, c.ok)
		} else if !c.ok && (b.State() != BreakerClosed || b.failures != 1 || b.Trips() != 0) {
			t.Errorf("%s: a refused blob moved the breaker to %v, %d failures, %d trips", c.name, b.State(), b.failures, b.Trips())
		}
	}
}
