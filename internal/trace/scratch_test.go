package trace

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// raceDetector reports a -race build (see race_test.go).
var raceDetector bool

// TestGenerateKeepsOnlyItsSeries holds a warm fleet-shape Generate to
// the series it returns plus 1 KiB of headers (the trace, its map, the
// series and its name): the weekly wave, the shared events and the RNG
// come from reused scratch. One P keeps the goroutine on the Pool
// shard it put its scratch in.
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
