package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"robustscale/internal/timeseries"
)

// WriteCSV writes the aggregated series of a trace as CSV with columns
// timestamp (RFC 3339) followed by one column per resource, sorted by
// resource name for determinism.
func (t *Trace) WriteCSV(w io.Writer) error {
	resources := make([]Resource, 0, len(t.Aggregated))
	for r := range t.Aggregated {
		resources = append(resources, r)
	}
	sort.Slice(resources, func(i, j int) bool { return resources[i] < resources[j] })
	if len(resources) == 0 {
		return fmt.Errorf("trace: %s has no series to write", t.Name)
	}

	first := t.Aggregated[resources[0]]
	n := first.Len()
	for _, r := range resources[1:] {
		if t.Aggregated[r].Len() != n {
			return fmt.Errorf("trace: %s resource %s length %d != %d", t.Name, r, t.Aggregated[r].Len(), n)
		}
	}

	cw := csv.NewWriter(w)
	header := make([]string, 1+len(resources))
	header[0] = "timestamp"
	for i, r := range resources {
		header[i+1] = string(r)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	row := make([]string, len(header))
	for i := 0; i < n; i++ {
		row[0] = first.TimeAt(i).Format(time.RFC3339)
		for j, r := range resources {
			row[j+1] = strconv.FormatFloat(t.Aggregated[r].At(i), 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvError is what ReadCSV returns for input it refuses: the data row
// the fault is in (1-based; 0 is the header) and, when one field is at
// fault, its column.
type csvError struct {
	row    int
	column string
	err    error
}

func (e *csvError) Error() string {
	at := fmt.Sprintf("row %d", e.row)
	if e.row == 0 {
		at = "header"
	}
	if e.column != "" {
		at += " column " + e.column
	}
	return fmt.Sprintf("trace: CSV %s: %v", at, e.err)
}

func (e *csvError) Unwrap() error { return e.err }

// ReadCSV parses a trace written by WriteCSV. It refuses, naming the row
// or column, a resource column that appears twice, a timestamp that does
// not parse or is off the regular grid the first two rows set (repeated,
// backwards or irregular), and a value that does not parse or is not
// finite.
func ReadCSV(name string, r io.Reader) (*Trace, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("trace: CSV for %s has no data rows", name)
	}
	header := records[0]
	if len(header) < 2 || header[0] != "timestamp" {
		return nil, fmt.Errorf("trace: CSV for %s has malformed header %v", name, header)
	}
	resources := make([]Resource, len(header)-1)
	for i, h := range header[1:] {
		if slices.Contains(resources[:i], Resource(h)) {
			return nil, &csvError{column: h, err: errors.New("resource appears twice")}
		}
		resources[i] = Resource(h)
	}

	n := len(records) - 1
	cols := make([][]float64, len(resources))
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	var start time.Time
	step := timeseries.DefaultStep
	for i, rec := range records[1:] {
		ts, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			return nil, &csvError{row: i + 1, column: "timestamp", err: err}
		}
		switch i {
		case 0:
			start = ts
		case 1:
			if step = ts.Sub(start); step <= 0 {
				return nil, &csvError{row: 2, column: "timestamp",
					err: fmt.Errorf("%s does not follow %s", rec[0], records[1][0])}
			}
		}
		if want := start.Add(time.Duration(i) * step); !ts.Equal(want) {
			return nil, &csvError{row: i + 1, column: "timestamp",
				err: fmt.Errorf("%s, want %s on the %v grid", rec[0], want.Format(time.RFC3339Nano), step)}
		}
		for j, res := range resources {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("non-finite value %s", rec[j+1])
			}
			if err != nil {
				return nil, &csvError{row: i + 1, column: string(res), err: err}
			}
			cols[j][i] = v
		}
	}

	t := &Trace{Name: name, Aggregated: make(map[Resource]*timeseries.Series, len(resources))}
	for j, res := range resources {
		t.Aggregated[res] = timeseries.New(name+"/"+string(res), start, step, cols[j])
	}
	return t, nil
}
