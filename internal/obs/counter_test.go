package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterIncExact: concurrent Incs on one counter lose nothing. Run
// under -race it also pins Inc as race-clean.
func TestCounterIncExact(t *testing.T) {
	c := NewRegistry().Counter("c_total", "help")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %v, want %v", got, workers*perWorker)
	}
}

// TestCounterAddSums: whole-number and fractional Adds, alone and mixed,
// concurrent or not, sum to what a plain float64 total reads.
func TestCounterAddSums(t *testing.T) {
	r := NewRegistry()
	whole := r.Counter("whole_total", "help")
	for _, v := range []float64{0, 1, 72, 1 << 40, 3} {
		whole.Add(v)
	}
	if got, want := whole.Value(), float64(1+72+1<<40+3); got != want {
		t.Errorf("whole Adds = %v, want %v", got, want)
	}
	frac := r.Counter("frac_total", "help")
	frac.Add(0.25)
	frac.Add(0.5)
	if got := frac.Value(); got != 0.75 {
		t.Errorf("fractional Adds = %v, want 0.75", got)
	}
	mixed := r.Counter("mixed_total", "help")
	const workers, perWorker = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				mixed.Inc()
				mixed.Add(2)
				mixed.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := mixed.Value(), 3.5*workers*perWorker; got != want {
		t.Errorf("mixed Adds = %v, want %v", got, want)
	}
}

// TestCounterExpositionGolden pins the exposition of a counter family fed
// only whole numbers, as it read while every Add was a float
// compare-and-swap.
func TestCounterExpositionGolden(t *testing.T) {
	r := NewRegistry()
	plans := r.CounterVec("plans_total", "Planning rounds completed, by strategy.", "strategy")
	for i := 0; i < 4800; i++ {
		plans.With("robust").Inc()
	}
	plans.With("adaptive").Add(3)
	plans.With("adaptive").Inc()
	plans.With("idle")
	steps := r.Counter("planned_steps_total", "Allocation steps committed across all plans.")
	for i := 0; i < 100000; i++ {
		steps.Add(12)
	}
	steps.Add(1 << 53)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP planned_steps_total Allocation steps committed across all plans.
# TYPE planned_steps_total counter
planned_steps_total 9.007199255940992e+15
# HELP plans_total Planning rounds completed, by strategy.
# TYPE plans_total counter
plans_total{strategy="adaptive"} 4
plans_total{strategy="idle"} 0
plans_total{strategy="robust"} 4800
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
