package nn

import (
	"encoding/binary"
	"fmt"

	"robustscale/internal/wire"
)

// Append appends the parameter values (not gradients or optimizer state)
// in the wire codec: a count, then per parameter its name, rows, cols and
// values (layout in DESIGN.md §8). A model embeds them in its own blob.
func (ps Params) Append(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = wire.AppendSection(b, p.Name)
		b = wire.AppendVarints(b, int64(p.Value.Rows), int64(p.Value.Cols))
		b = wire.AppendFloats(b, p.Value.Data)
	}
	return b
}

// Read restores parameter values Append wrote as the last field of rd's
// blob. Parameters are matched by position and validated by name and
// shape, so the receiving model must be built identically to the one that
// was saved; every parameter is checked, and the blob read to its end,
// before any value is copied, so a rejected blob leaves the model as it
// was.
func (ps Params) Read(rd *wire.Reader) error {
	if n := rd.Uvarint(); rd.Err() == nil && n != uint64(len(ps)) {
		return fmt.Errorf("nn: snapshot has %d parameters, model has %d", n, len(ps))
	}
	vals := make([][]float64, len(ps))
	for i, p := range ps {
		name, rows, cols := string(rd.Section()), rd.Int(), rd.Int()
		vals[i] = rd.Floats()
		switch {
		case rd.Err() != nil:
			return fmt.Errorf("nn: reading parameter %q: %w", p.Name, rd.Err())
		case name != p.Name:
			return fmt.Errorf("nn: parameter %d is %q in snapshot, %q in model", i, name, p.Name)
		case rows != p.Value.Rows || cols != p.Value.Cols:
			return fmt.Errorf("nn: parameter %q shape %dx%d in snapshot, %dx%d in model",
				p.Name, rows, cols, p.Value.Rows, p.Value.Cols)
		case len(vals[i]) != len(p.Value.Data):
			return fmt.Errorf("nn: parameter %q has %d values in snapshot, its %dx%d shape needs %d",
				p.Name, len(vals[i]), p.Value.Rows, p.Value.Cols, len(p.Value.Data))
		}
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("nn: reading parameters: %w", err)
	}
	for i, p := range ps {
		copy(p.Value.Data, vals[i])
	}
	return nil
}
