package scaler

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/wire"
)

// Checkpoint blobs of the resilience state (layouts in DESIGN.md §8). A
// restarted control plane that forgot its guard position would re-enter
// normal mode on a degraded stack, and a forgotten open breaker would
// hammer a failing control plane — so both serialize alongside the models.

// Save writes the guard's degradation-ladder position and retained
// last-known-good fan (no levels, mean or rows when none is retained).
// Configuration (Inner, Config, Health, Fallback) is not persisted — the
// restarted process reconstructs it from flags and re-wires the same
// hooks.
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
	b = binary.AppendUvarint(b, uint64(len(fan.Values)))
	for _, row := range fan.Values {
		b = wire.AppendFloats(b, row)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("scaler: saving guard: %w", err)
	}
	return nil
}

// Load restores the ladder position saved by Save into a freshly
// configured guard, re-exporting the degradation-mode gauge.
func (g *Guard) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	mode, reason, rounds := rd.Int(), string(rd.Section()), rd.Int()
	fan := &forecast.QuantileForecast{Levels: rd.Floats(), Mean: rd.Floats()}
	if n := rd.Count(1); n > 0 { // an empty row is one byte
		fan.Values = make([][]float64, n)
		for i := range fan.Values {
			fan.Values[i] = rd.Floats()
		}
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("scaler: loading guard: %w", err)
	}
	if mode < int(ModeNormal) || mode > int(ModeReactive) {
		return fmt.Errorf("scaler: guard snapshot has unknown mode %d", mode)
	}
	g.mode, g.lastReason, g.degradedRounds = DegradationMode(mode), reason, rounds
	g.lastGoodFan = nil
	g.seen.Reset() // warm state is never restored, only rebuilt
	if len(fan.Values) > 0 {
		g.lastGoodFan = fan
	}
	degradationMode.Set(float64(g.mode))
	return nil
}

// Save writes the breaker's position and consecutive-failure count.
// openedAt is stored as an absolute timestamp: the replay clock is
// virtual but monotone across restarts, so cooldown arithmetic stays
// correct.
func (b *Breaker) Save(w io.Writer) error {
	b.mu.Lock()
	state, failures, openedAt := b.state, b.failures, b.openedAt
	b.mu.Unlock()
	at, err := openedAt.MarshalBinary()
	if err == nil {
		buf := wire.AppendVarints(wire.Scratch(w), int64(state), int64(failures))
		_, err = w.Write(wire.AppendSection(buf, at))
	}
	if err != nil {
		return fmt.Errorf("scaler: saving breaker: %w", err)
	}
	return nil
}

// Load restores a breaker saved by Save, re-exporting the state gauge.
func (b *Breaker) Load(r io.Reader) error {
	rd := wire.ReadFrom(r)
	state, failures := rd.Int(), rd.Int()
	var openedAt time.Time
	if err := openedAt.UnmarshalBinary(rd.Section()); err != nil {
		rd.Fail(err)
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("scaler: loading breaker: %w", err)
	}
	if state < int(BreakerClosed) || state > int(BreakerHalfOpen) {
		return fmt.Errorf("scaler: breaker snapshot has unknown state %d", state)
	}
	b.mu.Lock()
	b.failures = failures
	b.openedAt = openedAt
	b.setState(BreakerState(state))
	b.mu.Unlock()
	return nil
}
