package scaler

import (
	"errors"
	"math"
	"testing"

	"robustscale/internal/forecast"
)

func fanOf(levels []float64, rows ...[]float64) *forecast.QuantileForecast {
	return &forecast.QuantileForecast{Levels: levels, Values: rows}
}

func TestRepairFanHealthyIsUntouched(t *testing.T) {
	f := fanOf([]float64{0.1, 0.5, 0.9},
		[]float64{1, 2, 3},
		[]float64{2, 2, 4})
	f.Mean = []float64{2, 2.5}
	n, err := RepairFan(f, 100)
	if err != nil || n != 0 {
		t.Fatalf("healthy fan: repairs=%d err=%v", n, err)
	}
	if f.Values[0][0] != 1 || f.Values[1][2] != 4 || f.Mean[1] != 2.5 {
		t.Error("healthy fan was modified")
	}
}

func TestRepairFanFixesPathologies(t *testing.T) {
	f := fanOf([]float64{0.1, 0.5, 0.9},
		[]float64{3, math.NaN(), 2},  // NaN + crossing
		[]float64{1, 2, math.Inf(1)}, // Inf
		[]float64{1e12, 1e12, 1e12})  // blow-up
	f.Mean = []float64{math.NaN(), 2, 1e12}
	n, err := RepairFan(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("pathological fan reported zero repairs")
	}
	if err := f.Validate(); err != nil {
		t.Errorf("repaired fan still invalid: %v", err)
	}
	for ti, row := range f.Values {
		for i, v := range row {
			if v > 100 {
				t.Errorf("Values[%d][%d] = %v exceeds bound", ti, i, v)
			}
		}
	}
	for i, v := range f.Mean {
		if !isFinite(v) || v > 100 {
			t.Errorf("Mean[%d] = %v", i, v)
		}
	}
}

func TestRepairFanUnrepairable(t *testing.T) {
	all := fanOf([]float64{0.5, 0.9},
		[]float64{math.NaN(), math.Inf(-1)})
	if _, err := RepairFan(all, 0); !errors.Is(err, ErrUnrepairableFan) {
		t.Errorf("first row all non-finite: err = %v", err)
	}
	if _, err := RepairFan(nil, 0); !errors.Is(err, ErrUnrepairableFan) {
		t.Errorf("nil fan: err = %v", err)
	}
	ragged := fanOf([]float64{0.5, 0.9}, []float64{1})
	if _, err := RepairFan(ragged, 0); !errors.Is(err, ErrUnrepairableFan) {
		t.Errorf("ragged row: err = %v", err)
	}
}

func TestRepairFanUsesPreviousRow(t *testing.T) {
	f := fanOf([]float64{0.5},
		[]float64{7},
		[]float64{math.NaN()})
	n, err := RepairFan(f, 0)
	if err != nil || n != 1 {
		t.Fatalf("repairs=%d err=%v", n, err)
	}
	if f.Values[1][0] != 7 {
		t.Errorf("single-level NaN row should take the previous row, got %v", f.Values[1][0])
	}
}

// FuzzRepairFan is the satellite fuzz target: arbitrary rows in, and the
// postcondition is all-or-nothing — either an ErrUnrepairableFan-class
// error, or a fan that is finite, monotone per row, and within bound. The
// guard's one-pass fanSound must call a fan sound exactly when RepairFan
// finds nothing to repair.
func FuzzRepairFan(f *testing.F) {
	f.Add(float64(1), float64(2), float64(3), float64(4), float64(5), float64(6), float64(100))
	f.Add(math.NaN(), float64(2), math.Inf(1), float64(4), math.Inf(-1), float64(6), float64(50))
	f.Add(float64(9), float64(5), float64(1), math.NaN(), math.NaN(), math.NaN(), float64(0))
	f.Add(math.MaxFloat64, -math.MaxFloat64, float64(0), float64(1e300), float64(-1e300), float64(0.5), float64(10))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, bound float64) {
		fan := fanOf([]float64{0.1, 0.5, 0.9},
			[]float64{a, b, c},
			[]float64{d, e, g})
		fan.Mean = []float64{a, d}
		sound := fanSound(fan, bound)
		n, err := RepairFan(fan, bound)
		if sound != (n == 0 && err == nil) {
			t.Fatalf("fanSound says %v, RepairFan made %d repairs (err %v)", sound, n, err)
		}
		if err != nil {
			if !errors.Is(err, ErrUnrepairableFan) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		for ti, row := range fan.Values {
			for i, v := range row {
				if !isFinite(v) {
					t.Fatalf("Values[%d][%d] = %v not finite after repair", ti, i, v)
				}
				if i > 0 && v < row[i-1] {
					t.Fatalf("row %d not monotone after repair: %v", ti, row)
				}
				if bound > 0 && v > bound {
					t.Fatalf("Values[%d][%d] = %v above bound %v", ti, i, v, bound)
				}
			}
		}
		for i, v := range fan.Mean {
			if !isFinite(v) {
				t.Fatalf("Mean[%d] = %v not finite after repair", i, v)
			}
		}
	})
}
