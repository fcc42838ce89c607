package scaler

import (
	"encoding/binary"
	"fmt"
	"io"

	"robustscale/internal/forecast"
	"robustscale/internal/wire"
)

// Checkpoint blobs of the resilience state (layouts in DESIGN.md §8). A
// restarted control plane that forgot its guard position would re-enter
// normal mode on a degraded stack, and a forgotten open breaker would
// hammer a failing path — so both serialize alongside the models.

// Save writes the guard's degradation-ladder position and retained
// last-known-good fan (no levels, mean or rows when none is retained).
// Configuration (Inner, Config, Clock) is not persisted — the restarted
// process reconstructs it from flags.
func (g *Guard) Save(w io.Writer) error {
	fan := g.lastGoodFan
	if fan == nil {
		fan = &forecast.QuantileForecast{}
	}
	b := binary.AppendVarint(wire.Scratch(w), int64(g.mode))
	b = wire.AppendSection(b, g.lastReason)
	b = binary.AppendVarint(b, int64(g.degradedRounds))
	b = wire.AppendFloats(b, fan.Levels)
	b = wire.AppendFloats(b, fan.Mean)
	if _, err := w.Write(wire.AppendRows(b, fan.Values)); err != nil {
		return fmt.Errorf("scaler: saving guard: %w", err)
	}
	return nil
}

// Load restores the ladder position saved by Save into a freshly
// configured guard, re-exporting the degradation-mode gauge. The retained
// fan, carved from one array that storeLastGood then reuses, must pass
// Validate with levels inside (0, 1), or planning from it could panic.
func (g *Guard) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	mode, reason, rounds := rd.Int(), string(rd.Section()), rd.Int()
	buf := make([]float64, 0, rd.Len()/8) // room for every float left: no carve moves it
	carve := func() []float64 {
		at := len(buf)
		buf = rd.FloatsTo(buf)
		return buf[at:len(buf):len(buf)]
	}
	fan := &forecast.QuantileForecast{Levels: carve(), Mean: carve(), Values: wire.List(&rd, 1, carve)}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("scaler: loading guard: %w", err)
	}
	if mode < int(ModeNormal) || mode > int(ModeReactive) {
		return fmt.Errorf("scaler: guard snapshot has unknown mode %d", mode)
	}
	if l := fan.Levels; len(fan.Values) > 0 && (len(l) == 0 || !(l[0] > 0 && l[len(l)-1] < 1)) {
		return fmt.Errorf("scaler: guard snapshot's last-good levels %v are not within (0, 1)", l)
	} else if err := fan.Validate(); len(fan.Values) > 0 && err != nil {
		return fmt.Errorf("scaler: guard snapshot's last-good fan: %w", err)
	}
	g.mode, g.lastReason, g.degradedRounds = DegradationMode(mode), reason, rounds
	g.lastGoodFan, g.lastGoodBuf = nil, buf
	g.seen.Reset() // warm state is never restored, only rebuilt
	if len(fan.Values) > 0 {
		g.lastGoodFan = fan
	}
	degradationMode.Set(float64(g.mode))
	return nil
}

// Save writes the breaker blob: state, consecutive failures, cooldown
// ticks left and trips. It is the one breaker layout; the wake-guard blob
// and the fleet's loop accounting embed it as a section.
func (b *Breaker) Save(w io.Writer) error {
	_, err := w.Write(b.appendBlob(wire.Scratch(w)))
	return err
}

func (b *Breaker) appendBlob(buf []byte) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return wire.AppendVarints(buf, int64(b.state), int64(b.failures), int64(b.ticksLeft), b.trips)
}

// Load restores a blob written by Save; a blob that does not decode to a
// reachable position leaves the breaker as it was.
func (b *Breaker) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	state, failures, left, trips := BreakerState(rd.Int()), rd.Int(), rd.Int(), rd.Varint()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("scaler: loading breaker: %w", err)
	}
	if state < BreakerClosed || state > BreakerHalfOpen || failures < 0 || trips < 0 ||
		left < 0 || (left > 0) != (state == BreakerOpen) {
		return fmt.Errorf("scaler: breaker snapshot holds no reachable position (state %d, %d failures, %d ticks left, %d trips)",
			state, failures, left, trips)
	}
	b.mu.Lock()
	b.state, b.failures, b.ticksLeft, b.trips = state, failures, left, trips
	b.publish()
	b.mu.Unlock()
	return nil
}
