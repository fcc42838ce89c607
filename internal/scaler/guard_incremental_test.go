package scaler

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/optimize"
	"robustscale/internal/timeseries"
)

// tailFan plans from a fan whose quantiles are fixed multiples of the
// last observation, so whether the guard's sanity bound bites depends on
// where that observation sits against the window's peak.
type tailFan struct{ theta float64 }

func (*tailFan) Name() string { return "tail-fan" }

func (s *tailFan) PlanInto(hist *timeseries.Series, h int, dst []int) (Round, error) {
	last := hist.At(hist.Len() - 1)
	fan := &forecast.QuantileForecast{Levels: []float64{0.1, 0.5, 0.9}}
	path := make([]float64, h)
	for t := range path {
		fan.Values = append(fan.Values, []float64{0.5 * last, last, 3 * last})
		fan.Mean = append(fan.Mean, last)
		path[t] = 3 * last
	}
	plan, err := optimize.PlanInto(path, s.theta, dst)
	return Round{Nodes: plan, Fan: fan}, err
}

// sawHistory records the history the guard handed its inner strategy.
type sawHistory struct {
	Strategy
	hist *timeseries.Series
	vals []float64
}

func (s *sawHistory) PlanInto(hist *timeseries.Series, h int, dst []int) (Round, error) {
	s.hist, s.vals = hist, append(s.vals[:0], hist.Values...)
	return s.Strategy.PlanInto(hist, h, dst)
}

// driveGuardHistories interprets prog as (op, arg) byte pairs mutating
// one history, and after every op plans it through a long-lived guard and
// through a fresh one, whose watermarks are empty and therefore takes the
// from-scratch branch of every check. The round, what the inner strategy
// was handed, the repair counters and the mode must agree at every step:
// the incremental checks are a cache, never an approximation.
func driveGuardHistories(t testing.TB, prog []byte) {
	const h = 3
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	window := 8
	stacks := []struct {
		name string
		make func() *Guard
		live *Guard
		buf  []int
	}{
		{name: "fan", make: func() *Guard {
			return &Guard{Inner: &sawHistory{Strategy: &tailFan{theta: 5}},
				Config: GuardConfig{Theta: 5, BlowupFactor: 1.5, HistoryWindow: window}}
		}},
		// A factor below one clamps the reactive plan whenever the recent
		// maximum is the window's peak.
		{name: "fan-less", make: func() *Guard {
			return &Guard{Inner: &sawHistory{Strategy: &ReactiveMax{Window: 3, Theta: 5}},
				Config: GuardConfig{Theta: 5, BlowupFactor: 0.8, HistoryWindow: window}}
		}},
	}
	for i := range stacks {
		stacks[i].live = stacks[i].make()
	}

	x := uint64(len(prog))
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return 1 + float64(x>>40%990)/10
	}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	clone := func(vals []float64) []float64 { return append(make([]float64, 0, 2*len(vals)), vals...) }
	vals := []float64{next()}

	for pc := 0; pc+1 < len(prog) && pc < 512; pc += 2 {
		op, arg := prog[pc]%10, int(prog[pc+1])
		k := 1 + arg%4
		switch op {
		case 0: // same length, same array
		case 1: // append k
			for i := 0; i < k; i++ {
				vals = append(vals, next())
			}
		case 2: // clone
			vals = clone(vals)
		case 3: // shrink
			vals = vals[:max(1, len(vals)-k)]
		case 4: // a non-finite value in the new suffix
			for i := 0; i < k; i++ {
				vals = append(vals, next())
			}
			vals[len(vals)-1-arg%k] = nonFinite[arg%3]
		case 5: // a non-finite value in the old prefix of a clone
			vals = clone(vals)
			vals[arg%len(vals)] = nonFinite[arg%3]
		case 6: // in-place tail mutation
			vals[len(vals)-1] = next()
			if arg%5 == 0 {
				vals[len(vals)-1] = nonFinite[arg%3]
			}
		case 7: // a spike that later appends slide out of the window
			vals = append(vals, 10*next())
		case 8: // HistoryWindow changed between rounds
			window = 2 + arg%12
		case 9: // healed copy: finite again on a new array
			vals = clone(vals)
			for i, v := range vals {
				if !isFinite(v) {
					vals[i] = next()
				}
			}
		}
		view := timeseries.New("drive", start, 10*time.Minute, vals)

		for i := range stacks {
			st := &stacks[i]
			plan := func(g *Guard, dst []int) (Round, [3]float64, error) {
				g.Config.HistoryWindow = window
				tel, fan, deg := guardTelemetryRepairs.Value(), guardFanRepairs.Value(), g.DegradedRounds()
				round, err := g.PlanInto(view, h, dst)
				return round, [3]float64{guardTelemetryRepairs.Value() - tel, guardFanRepairs.Value() - fan,
					float64(g.DegradedRounds() - deg)}, err
			}
			fresh := st.make()
			want, wantCounts, wantErr := plan(fresh, nil)
			got, gotCounts, gotErr := plan(st.live, st.buf)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s op %d/%d (pc %d): live err %v, fresh err %v", st.name, op, arg, pc, gotErr, wantErr)
			}
			st.buf = got.Nodes
			liveIn, freshIn := st.live.Inner.(*sawHistory), fresh.Inner.(*sawHistory)
			switch {
			case !reflect.DeepEqual(got.Nodes, want.Nodes):
				t.Fatalf("%s op %d/%d (pc %d): plan %v, fresh guard plans %v", st.name, op, arg, pc, got.Nodes, want.Nodes)
			case !reflect.DeepEqual(got.Fan, want.Fan):
				t.Fatalf("%s op %d/%d (pc %d): fan %+v, fresh guard's %+v", st.name, op, arg, pc, got.Fan, want.Fan)
			case gotCounts != wantCounts:
				t.Fatalf("%s op %d/%d (pc %d): telemetry/fan repairs and degraded rounds %v, fresh guard's %v", st.name, op, arg, pc, gotCounts, wantCounts)
			case st.live.Mode() != fresh.Mode() || st.live.LastReason() != fresh.LastReason():
				t.Fatalf("%s op %d/%d (pc %d): mode %v (%q), fresh guard's %v (%q)", st.name, op, arg, pc,
					st.live.Mode(), st.live.LastReason(), fresh.Mode(), fresh.LastReason())
			case !reflect.DeepEqual(liveIn.vals, freshIn.vals) || (liveIn.hist == view) != (freshIn.hist == view):
				t.Fatalf("%s op %d/%d (pc %d): inner saw %v (passthrough %v), under a fresh guard %v (%v)", st.name, op, arg, pc,
					liveIn.vals, liveIn.hist == view, freshIn.vals, freshIn.hist == view)
			}
		}
	}
}

// guardHistoryPrograms are hand-written op sequences that reach every
// invalidation rule at least once; they also seed the fuzzer.
var guardHistoryPrograms = [][]byte{
	// grow, stay, grow: the pure incremental path
	{1, 3, 1, 3, 0, 0, 1, 0, 1, 2, 0, 0, 1, 3},
	// a spike slides out of an 8-step window one append at a time
	{1, 3, 7, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0},
	// the window shrinks below and grows past the remembered peak
	{1, 3, 1, 3, 7, 0, 1, 3, 8, 0, 0, 0, 8, 11, 0, 0, 8, 1, 1, 1, 8, 9},
	// non-finite suffix, then the same poisoned array again, then healed
	{1, 3, 4, 1, 0, 0, 1, 2, 9, 0, 1, 1, 4, 2, 4, 0, 9, 0, 0, 0},
	// clone, poisoned clone, shrink, regrow over the old tail
	{1, 3, 2, 0, 1, 1, 5, 2, 5, 0, 9, 0, 3, 2, 1, 3, 3, 9, 1, 0},
	// tail mutated in place: finite, then non-finite, then the peak itself
	{1, 3, 6, 1, 0, 0, 6, 0, 0, 0, 9, 0, 7, 0, 6, 2, 0, 0},
	// all observations non-finite
	{6, 0, 0, 0, 4, 0, 9, 0},
}

func TestGuardIncrementalMatchesFreshGuard(t *testing.T) {
	for _, prog := range guardHistoryPrograms {
		driveGuardHistories(t, prog)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		prog := make([]byte, 2*(8+rng.Intn(120)))
		rng.Read(prog)
		for pc := 0; pc < len(prog); pc += 2 {
			if rng.Intn(3) > 0 {
				prog[pc] = 1 // mostly appends, so the watermarks get to matter
			}
		}
		driveGuardHistories(t, prog)
	}
}

func FuzzGuardHistories(f *testing.F) {
	for _, prog := range guardHistoryPrograms {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { driveGuardHistories(t, prog) })
}
