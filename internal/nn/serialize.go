package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the gob wire format for a parameter set.
type snapshot struct {
	Names  []string
	Shapes [][2]int
	Data   [][]float64
}

// Save writes the parameter values (not gradients or optimizer state) to w.
func (ps Params) Save(w io.Writer) error {
	snap := snapshot{
		Names:  make([]string, len(ps)),
		Shapes: make([][2]int, len(ps)),
		Data:   make([][]float64, len(ps)),
	}
	for i, p := range ps {
		snap.Names[i] = p.Name
		snap.Shapes[i] = [2]int{p.Value.Rows, p.Value.Cols}
		snap.Data[i] = p.Value.Data
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("nn: encoding parameters: %w", err)
	}
	return nil
}

// Load restores parameter values saved by Save. Parameters are matched by
// position and validated by name and shape, so the receiving model must be
// built identically to the one that was saved.
func (ps Params) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decoding parameters: %w", err)
	}
	if len(snap.Names) != len(ps) {
		return fmt.Errorf("nn: snapshot has %d parameters, model has %d", len(snap.Names), len(ps))
	}
	if len(snap.Shapes) != len(ps) || len(snap.Data) != len(ps) {
		if i := min(len(snap.Shapes), len(snap.Data)); i < len(ps) {
			return fmt.Errorf("nn: snapshot holds no shape or values for parameter %q", ps[i].Name)
		}
		return fmt.Errorf("nn: snapshot holds %d shapes and %d value arrays for %d parameters",
			len(snap.Shapes), len(snap.Data), len(ps))
	}
	// Validate everything before copying anything, so a rejected snapshot
	// leaves the model as it was.
	for i, p := range ps {
		if snap.Names[i] != p.Name {
			return fmt.Errorf("nn: parameter %d is %q in snapshot, %q in model", i, snap.Names[i], p.Name)
		}
		if snap.Shapes[i] != [2]int{p.Value.Rows, p.Value.Cols} {
			return fmt.Errorf("nn: parameter %q shape %v in snapshot, %dx%d in model",
				p.Name, snap.Shapes[i], p.Value.Rows, p.Value.Cols)
		}
		if len(snap.Data[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: parameter %q has %d values in snapshot, its %dx%d shape needs %d",
				p.Name, len(snap.Data[i]), p.Value.Rows, p.Value.Cols, len(p.Value.Data))
		}
	}
	for i, p := range ps {
		copy(p.Value.Data, snap.Data[i])
	}
	return nil
}
