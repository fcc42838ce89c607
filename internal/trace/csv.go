package trace

import (
	"encoding/csv"
	"fmt"
	"io"
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

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(name string, r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
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
		resources[i] = Resource(h)
	}

	n := len(records) - 1
	start, err := time.Parse(time.RFC3339, records[1][0])
	if err != nil {
		return nil, fmt.Errorf("trace: parsing first timestamp: %w", err)
	}
	step := timeseries.DefaultStep
	if n >= 2 {
		second, err := time.Parse(time.RFC3339, records[2][0])
		if err != nil {
			return nil, fmt.Errorf("trace: parsing second timestamp: %w", err)
		}
		step = second.Sub(start)
	}

	cols := make([][]float64, len(resources))
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	for i, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("trace: CSV row %d has %d fields, want %d", i+1, len(rec), len(header))
		}
		for j := range resources {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: CSV row %d column %s: %w", i+1, resources[j], err)
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
