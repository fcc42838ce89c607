package optimize_test

import (
	"testing"

	"robustscale/internal/experiment"
	"robustscale/internal/optimize"
)

// BenchmarkAblationSolver compares the closed-form allocation against the
// simplex LP on identical inputs (they agree; the LP pays for generality).
func BenchmarkAblationSolver(b *testing.B) {
	z, err := experiment.NewZoo(experiment.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	d, err := z.Dataset(experiment.Alibaba)
	if err != nil {
		b.Fatal(err)
	}
	wl := d.Series
	demand := wl.Values[wl.Len()*8/10 : wl.Len()*8/10+72]
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimize.Plan(demand, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimize.PlanLP(demand, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}
