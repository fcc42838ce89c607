package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	cfg := AlibabaStyle(9)
	cfg.Days = 2
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("alibaba", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range cfg.Resources {
		orig, _ := tr.Series(res)
		got, err := back.Series(res)
		if err != nil {
			t.Fatalf("%s missing after round trip", res)
		}
		if got.Len() != orig.Len() {
			t.Fatalf("%s: len %d != %d", res, got.Len(), orig.Len())
		}
		if !got.Start.Equal(orig.Start) || got.Step != orig.Step {
			t.Errorf("%s: start/step mismatch", res)
		}
		for i := 0; i < got.Len(); i++ {
			if got.At(i) != orig.At(i) {
				t.Fatalf("%s[%d]: %v != %v", res, i, got.At(i), orig.At(i))
			}
		}
	}
}

// TestReadCSVErrors: every refused input returns an error, and the
// faults inside the table name the row and column they sit in. A row of
// the wrong width is refused by encoding/csv, by its line.
func TestReadCSVErrors(t *testing.T) {
	for _, in := range []string{"", "time,cpu\n", "timestamp,cpu\n", "timestamp,cpu\n2023-09-01T00:00:00Z\n"} {
		if _, err := ReadCSV("x", strings.NewReader(in)); err == nil {
			t.Errorf("%q: no error", in)
		}
	}
	const t0, t1, t2 = "2023-09-01T00:00:00Z", "2023-09-01T00:10:00Z", "2023-09-01T00:20:00Z"
	for _, tc := range []struct {
		name, in string
		row      int
		column   string
	}{
		{"bad first timestamp", "timestamp,cpu\nnot-a-time,1\n", 1, "timestamp"},
		{"bad value", "timestamp,cpu\n" + t0 + ",abc\n", 1, "cpu"},
		{"NaN", "timestamp,cpu\n" + t0 + ",1\n" + t1 + ",NaN\n", 2, "cpu"},
		{"-Inf", "timestamp,cpu,mem\n" + t0 + ",1,-Inf\n", 1, "mem"},
		{"overflow", "timestamp,cpu\n" + t0 + ",1e999\n", 1, "cpu"},
		{"duplicated column", "timestamp,cpu,cpu\n" + t0 + ",1,2\n", 0, "cpu"},
		{"repeated timestamp", "timestamp,cpu\n" + t0 + ",1\n" + t0 + ",2\n", 2, "timestamp"},
		{"backwards timestamp", "timestamp,cpu\n" + t1 + ",1\n" + t0 + ",2\n", 2, "timestamp"},
		{"irregular timestamp", "timestamp,cpu\n" + t0 + ",1\n" + t1 + ",2\n" + t1 + ",3\n", 3, "timestamp"},
		{"bad third timestamp", "timestamp,cpu\n" + t0 + ",1\n" + t1 + ",2\n" + t2 + ",3\nlater,4\n", 4, "timestamp"},
	} {
		_, err := ReadCSV("x", strings.NewReader(tc.in))
		var ce *csvError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v, want a csvError", tc.name, err)
			continue
		}
		if ce.row != tc.row || ce.column != tc.column {
			t.Errorf("%s: error %q names row %d column %q, want row %d column %q",
				tc.name, err, ce.row, ce.column, tc.row, tc.column)
		}
	}
}

// FuzzReadCSV: any input either errors or yields a trace whose every
// series holds one finite value per data row, at the timestamp that row
// carries — start + i·step — and never panics.
func FuzzReadCSV(f *testing.F) {
	cfg := AlibabaStyle(1)
	cfg.Units, cfg.Days = 2, 1
	tr, err := Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, seed := range []string{
		"timestamp,cpu\n2023-09-01T00:00:00Z,1\n",
		"timestamp,cpu,cpu\n2023-09-01T00:00:00Z,1,2\n",
		"timestamp,cpu\n2023-09-01T00:10:00Z,1\n2023-09-01T00:00:00Z,NaN\n",
		"timestamp,cpu\n2023-09-01T00:00:00Z,1\n2023-09-01T00:10:00Z,2\nlater,3\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("ReadCSV accepted input encoding/csv refuses: %v", err)
		}
		rows := records[1:]
		for res, s := range tr.Aggregated {
			if s.Len() != len(rows) {
				t.Fatalf("%s: %d values for %d rows", res, s.Len(), len(rows))
			}
			for i, v := range s.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s row %d: accepted non-finite %v", res, i+1, v)
				}
				ts, err := time.Parse(time.RFC3339, rows[i][0])
				if err != nil || !s.TimeAt(i).Equal(ts) {
					t.Fatalf("%s row %d: timestamp %q, series has %v (%v)", res, i+1, rows[i][0], s.TimeAt(i), err)
				}
			}
		}
	})
}
