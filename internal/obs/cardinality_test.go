package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "escape check", "path")
	v.With(`a\b`).Inc()
	v.With(`say "hi"`).Inc()
	v.With("line1\nline2").Inc()
	v.With("tab\there-ü").Inc() // tabs and UTF-8 must pass through raw
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`esc_total{path="a\\b"} 1`,
		`esc_total{path="say \"hi\""} 1`,
		`esc_total{path="line1\nline2"} 1`,
		"esc_total{path=\"tab\there-ü\"} 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "\nesc_total{") != 4 {
		t.Errorf("expected 4 escaped series, got:\n%s", out)
	}
}

func TestCardinalityGuardOverflow(t *testing.T) {
	r := NewRegistry()
	r.SetLabelLimit(3)
	v := r.CounterVec("guarded_total", "capped family", "tenant")
	for i := 0; i < 10; i++ {
		v.With(fmt.Sprintf("t%02d", i)).Inc()
	}
	// First 3 values get real series; the remaining 7 share "other".
	if got := v.With(OverflowLabel).Value(); got != 7 {
		t.Errorf("overflow series = %v, want 7", got)
	}
	for i := 0; i < 3; i++ {
		if got := v.With(fmt.Sprintf("t%02d", i)).Value(); got != 1 {
			t.Errorf("t%02d = %v, want 1", i, got)
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "guarded_total{"); n != 4 {
		t.Errorf("exposition has %d guarded series, want 4 (3 real + other):\n%s", n, out)
	}
	if !strings.Contains(out, overflowMetricName+`{metric="guarded_total"} 7`) {
		t.Errorf("overflow counter missing or wrong:\n%s", out)
	}
}

// TestCardinalityGuardEveryKind: the registry's cap bounds gauge,
// counter and histogram families alike; -label-limit is the one knob.
func TestCardinalityGuardEveryKind(t *testing.T) {
	r := NewRegistry()
	r.SetLabelLimit(2)
	g := r.GaugeVec("capped_gauge", "capped gauge", "k")
	c := r.CounterVec("capped_total", "capped counter", "k")
	h := r.HistogramVec("capped_seconds", "capped histogram", "k", []float64{1})
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("v%d", i)
		g.With(k).Set(1)
		c.With(k).Inc()
		h.With(k).Observe(0.5)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, series := range []string{"capped_gauge{", "capped_total{", "capped_seconds_count{"} {
		if n := strings.Count(out, series); n != 3 {
			t.Errorf("%s series = %d, want 3 (2 + other)", series, n)
		}
	}
}

func TestCardinalityGuardConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetLabelLimit(8)
	v := r.CounterVec("race_total", "concurrent creation", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v.With(fmt.Sprintf("w%d-i%d", w, i)).Inc()
			}
		}(w)
	}
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// The cap is enforced under the family lock: exactly 8 real series
	// plus the overflow series, regardless of interleaving.
	if n := strings.Count(b.String(), "race_total{"); n != 9 {
		t.Errorf("series count = %d, want 9 (8 real + other)", n)
	}
	if got := v.With(OverflowLabel).Value(); got != 400-8 {
		t.Errorf("overflow count = %v, want 392", got)
	}
}

func TestOverflowFamilyExempt(t *testing.T) {
	r := NewRegistry()
	r.SetLabelLimit(1)
	// Overflow two distinct families; the overflow counter itself must
	// keep one real series per family, not collapse into "other".
	a := r.CounterVec("fam_a_total", "a", "k")
	b := r.CounterVec("fam_b_total", "b", "k")
	for i := 0; i < 3; i++ {
		a.With(fmt.Sprintf("x%d", i)).Inc()
		b.With(fmt.Sprintf("x%d", i)).Inc()
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		overflowMetricName + `{metric="fam_a_total"} 2`,
		overflowMetricName + `{metric="fam_b_total"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
