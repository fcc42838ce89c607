package obs

import (
	"testing"
	"time"
)

// The benchmarks below bound the per-operation cost of the hot-path
// instruments; DESIGN.md §5 relates them to the control-loop step cost to
// justify the always-on instrumentation (<2% overhead).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("c_total", "help")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h_seconds", "help", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("h_seconds", "help", nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}

func BenchmarkVecWithLookup(b *testing.B) {
	v := NewRegistry().CounterVec("v_total", "help", "k")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("stage").Inc()
	}
}

func BenchmarkJournalRecord(b *testing.B) {
	j := NewJournal(1024)
	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	fields := map[string]float64{"from": 3, "to": 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.RecordTenantAt(now, "", "scale", "scale 3 -> 5", fields)
	}
}

// BenchmarkSpanEnabled bounds the per-span recording cost: two monotonic
// clock reads plus one ring-slot write under a short critical section.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(16384)
	tr.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("plan-round")
		sp.End()
	}
}

// BenchmarkSpanDisabled is the price every instrumented site pays when no
// one is watching: one atomic load per Start and a nil check per End.
func BenchmarkSpanDisabled(b *testing.B) {
	tr := NewTracer(16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("plan-round")
		sp.End()
	}
}

func BenchmarkSpanEnabledParallel(b *testing.B) {
	tr := NewTracer(16384)
	tr.SetEnabled(true)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sp := tr.StartTID("work", WorkerTID0)
			sp.End()
		}
	})
}

// BenchmarkDecisionRecord bounds the cost of recording one planning
// round's decision (slices are owned by the caller, not copied).
func BenchmarkDecisionRecord(b *testing.B) {
	s := NewDecisionStore(512)
	d := Decision{
		Strategy: "tft-adaptive-0.7/0.99", Step: 100, Horizon: 3, Theta: 100,
		PrevNodes: 3, Nodes: []int{4, 7, 7}, Delta: 1,
		U: []float64{0.05, 0.14, 0.2}, Tau: []float64{0.7, 0.99, 0.99},
		Tau1: 0.7, Tau2: 0.99, Rho: 0.11,
		Quantile: []float64{390, 681, 612},
		Binding:  []string{BindingDemand, BindingDemand, BindingDemand},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Record(d)
	}
}
