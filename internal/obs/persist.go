package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"robustscale/internal/wire"
)

// Checkpoint blobs of the bounded rings (layouts in DESIGN.md §8).
// Persisting the journal and decision store keeps the postmortem timeline
// continuous across a restart: an operator debugging a crash can see the
// rounds that led into it, not just the rounds after recovery.

// saveRing writes a ring's sequence counter, then its retained records
// oldest-first.
func saveRing[T any](w io.Writer, what string, seq uint64, recs []T, appendRec func([]byte, *T) []byte) error {
	b := binary.AppendUvarint(binary.AppendUvarint(wire.Scratch(w), seq), uint64(len(recs)))
	for i := range recs {
		b = appendRec(b, &recs[i])
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("obs: saving %s: %w", what, err)
	}
	return nil
}

// loadRing reads what saveRing wrote, believing the record count only as
// far as minSize bytes a record go.
func loadRing[T any](r io.Reader, what string, minSize int, readRec func(*wire.Reader) T) (uint64, []T, error) {
	rd := wire.ReadFrom(r)
	seq := rd.Uvarint()
	recs := wire.List(&rd, minSize, func() T { return readRec(&rd) })
	if err := rd.Done(); err != nil {
		return 0, nil, fmt.Errorf("obs: loading %s: %w", what, err)
	}
	if uint64(len(recs)) > seq {
		return 0, nil, fmt.Errorf("obs: %s snapshot holds %d records for sequence %d", what, len(recs), seq)
	}
	return seq, recs, nil
}

// Save writes the retained events and sequence counter, each event's
// fields in ascending key order so equal journals save equal bytes.
func (j *Journal) Save(w io.Writer) error {
	stats, events := j.snapshot(nil, nil)
	return saveRing(w, "journal", stats.Total, events, func(b []byte, ev *Event) []byte {
		b = wire.AppendTime(binary.AppendUvarint(b, ev.Seq), ev.Time)
		b = wire.AppendSection(wire.AppendSection(wire.AppendSection(b, ev.Tenant), ev.Kind), ev.Msg)
		keys := make([]string, 0, len(ev.Fields))
		for k := range ev.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = wire.AppendFloat(wire.AppendSection(b, k), ev.Fields[k])
		}
		return b
	})
}

// Load restores a journal saved by Save into the receiver, preserving
// the receiver's capacity: when the snapshot holds more events than the
// ring, only the newest fit and the rest count as dropped (Seq gaps
// stay visible, exactly as if the ring had overwritten them live).
func (j *Journal) Load(r io.Reader) error {
	// An event is at least a sequence byte, a 16-byte time section and
	// four counts.
	seq, events, err := loadRing(r, "journal", 21, func(rd *wire.Reader) Event {
		ev := Event{Seq: rd.Uvarint(), Time: rd.Time(),
			Tenant: string(rd.Section()), Kind: string(rd.Section()), Msg: string(rd.Section())}
		n := rd.Count(9) // a field is at least a key count and a float
		if n > 0 {
			ev.Fields = make(map[string]float64, n)
		}
		for i, prev := 0, ""; i < n; i++ {
			k := string(rd.Section())
			if i > 0 && k <= prev {
				rd.Fail(fmt.Errorf("event field %q out of order", k))
			}
			ev.Fields[k], prev = rd.Float(), k
		}
		return ev
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.restore(seq, events)
	j.mu.Unlock()
	return nil
}

// Save writes the retained decisions and sequence counter, each
// decision's fields in declaration order.
func (s *DecisionStore) Save(w io.Writer) error {
	stats, decisions := s.snapshot(nil, Decision.clone)
	return saveRing(w, "decisions", stats.Total, decisions, func(b []byte, d *Decision) []byte {
		b = wire.AppendSection(wire.AppendTime(binary.AppendUvarint(b, d.Seq), d.Time), d.Tenant)
		b = wire.AppendSection(b, d.Strategy)
		b = wire.AppendFloat(wire.AppendVarints(b, int64(d.Step), int64(d.Horizon)), d.Theta)
		b = binary.AppendUvarint(wire.AppendVarints(b, int64(d.PrevNodes)), uint64(len(d.Nodes)))
		for _, n := range d.Nodes {
			b = binary.AppendVarint(b, int64(n))
		}
		b = wire.AppendFloats(wire.AppendFloats(wire.AppendVarints(b, int64(d.Delta)), d.U), d.Tau)
		b = wire.AppendFloat(wire.AppendFloat(wire.AppendFloat(b, d.Tau1), d.Tau2), d.Rho)
		b = binary.AppendUvarint(wire.AppendFloats(b, d.Quantile), uint64(len(d.Binding)))
		for _, s := range d.Binding {
			b = wire.AppendSection(b, s)
		}
		b = wire.AppendSection(wire.AppendSection(b, d.Degraded), d.DegradedReason)
		return wire.AppendSection(wire.AppendVarints(b, int64(d.Shed)), d.ShedReason)
	})
}

// Load restores a store saved by Save into the receiver, trimming to
// the receiver's capacity as Journal.Load does. The enable gate is not
// part of the snapshot — the restarted process decides capture itself.
func (s *DecisionStore) Load(r io.Reader) error {
	// A decision is at least 64 bytes: its time section, four floats and
	// sixteen other fields of a byte or more.
	seq, decisions, err := loadRing(r, "decision", 64, func(rd *wire.Reader) Decision {
		d := Decision{Seq: rd.Uvarint(), Time: rd.Time(), Tenant: string(rd.Section()), Strategy: string(rd.Section()),
			Step: rd.Int(), Horizon: rd.Int(), Theta: rd.Float(), PrevNodes: rd.Int()}
		d.Nodes, d.Delta, d.U, d.Tau = wire.List(rd, 1, rd.Int), rd.Int(), rd.Floats(), rd.Floats()
		d.Tau1, d.Tau2, d.Rho, d.Quantile = rd.Float(), rd.Float(), rd.Float(), rd.Floats()
		d.Binding = wire.List(rd, 1, func() string { return string(rd.Section()) })
		d.Degraded, d.DegradedReason = string(rd.Section()), string(rd.Section())
		d.Shed, d.ShedReason = rd.Int(), string(rd.Section())
		return d
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.restore(seq, decisions)
	s.mu.Unlock()
	return nil
}
