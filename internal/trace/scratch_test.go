package trace

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// raceDetector reports a -race build (see race_test.go).
var raceDetector bool

// TestGenerateKeepsOnlyItsSeries holds a warm fleet-shape Generate to
// the series it returns plus 1 KiB of headers (the trace, its map, the
// series and its name), in 6 allocations: the weekly wave, the shared
// events and the generator come from reused scratch. One P keeps the
// goroutine on the Pool shard it put its scratch in.
func TestGenerateKeepsOnlyItsSeries(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, style := range []func(int64) Config{AlibabaStyle, ServerlessStyle} {
		cfg := fleetShape(style, 16)
		if _, err := Generate(cfg); err != nil { // warm-up: leaves scratch in the pool
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		series := uint64(8 * cfg.Len())
		if got := m1.TotalAlloc - m0.TotalAlloc; got > series+1024 {
			t.Errorf("%s: Generate allocated %d B, want at most the %d B series + 1 KiB", cfg.Name, got, series)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = Generate(cfg) }); n > 6 {
			t.Errorf("%s: Generate made %v allocations, want at most 6", cfg.Name, n)
		}
	}
}

// TestWeeklyWaveFollowsStep generates at steps and lengths that change
// call to call and then reads the scratch the call put back: its whole
// weekly wave must be math.Sin's at the last call's step, at least as
// long as that call's trace, so a wave kept from another step or a
// shorter trace is never reused. The steps extend a kept prefix (5 min,
// then 10 min), regrow the scratch and switch step with room to spare. One P hands the same scratch back; a
// fresh one (the GC emptied the Pool) has nothing to check.
func TestWeeklyWaveFollowsStep(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		step time.Duration
		days int
	}{{10 * time.Minute, 4}, {5 * time.Minute, 1}, {5 * time.Minute, 2}, {10 * time.Minute, 1}, {10 * time.Minute, 3},
		{10 * time.Minute, 6}, {30 * time.Minute, 3}, {5 * time.Minute, 3}} {
		cfg := fleetShape(AlibabaStyle, c.days)
		cfg.Step = c.step
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
		sc := scratches.Get().(*scratch)
		scratches.Put(sc)
		if sc.shared == nil {
			continue
		}
		if perDay := cfg.stepsPerDay(); sc.weeklyPerDay != perDay || len(sc.weekly) < cfg.Len() {
			t.Fatalf("%v, %d days: the scratch holds %d weekly values at %d steps a day, want %d at %d",
				c.step, c.days, len(sc.weekly), sc.weeklyPerDay, cfg.Len(), perDay)
		}
		for i, v := range sc.weekly {
			if want := math.Sin(2 * math.Pi * float64(i) / (7 * float64(sc.weeklyPerDay))); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%v, %d days: weekly[%d] = %v, want %v", c.step, c.days, i, v, want)
			}
		}
	}
}

// TestGenerateConcurrentMatchesSerial runs Generate on 8 goroutines at
// once, each over its own seeds and lengths, so scratch passes between
// callers of different lengths: every trace must carry the bits of the
// same configuration generated alone.
func TestGenerateConcurrentMatchesSerial(t *testing.T) {
	const workers, calls = 8, 6
	styles := []func(int64) Config{AlibabaStyle, GoogleStyle, ServerlessStyle, DecayingStyle}
	cfgOf := func(w, i int) Config {
		cfg := fleetShape(styles[(w+i)%len(styles)], 1+(w*calls+i)%9)
		cfg.Seed = int64(100*w + i)
		return cfg
	}
	want := make([][]*Trace, workers)
	for w := range want {
		for i := 0; i < calls; i++ {
			tr, err := Generate(cfgOf(w, i))
			if err != nil {
				t.Fatal(err)
			}
			want[w] = append(want[w], tr)
		}
	}
	got := make([][]*Trace, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls && errs[w] == nil; i++ {
				var tr *Trace
				tr, errs[w] = Generate(cfgOf(w, i))
				got[w] = append(got[w], tr)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i, tr := range got[w] {
			if !sameBits(tr, want[w][i]) {
				cfg := cfgOf(w, i)
				t.Errorf("%s seed %d, %d days: concurrent trace differs from the serial one", cfg.Name, cfg.Seed, cfg.Days)
			}
		}
	}
}

// sameBits reports whether two traces carry the same resources, labels
// and value bits.
func sameBits(a, b *Trace) bool {
	if a.Name != b.Name || len(a.Aggregated) != len(b.Aggregated) {
		return false
	}
	for res, sa := range a.Aggregated {
		sb, ok := b.Aggregated[res]
		if !ok || sa.Name != sb.Name || !sa.Start.Equal(sb.Start) || sa.Step != sb.Step || len(sa.Values) != len(sb.Values) {
			return false
		}
		for i, v := range sa.Values {
			if math.Float64bits(v) != math.Float64bits(sb.Values[i]) {
				return false
			}
		}
	}
	return true
}
