package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add did not panic")
		}
	}()
	NewRegistry().Counter("c_total", "help").Add(-1)
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help")
	b := r.Counter("same_total", "other help ignored")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	va := r.CounterVec("vec_total", "help", "k")
	vb := r.CounterVec("vec_total", "help", "k")
	if va.With("x") != vb.With("x") {
		t.Error("re-registered vec returned a different child")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "help")
}

// TestConcurrentUpdates hammers every instrument type from many
// goroutines; run under -race this pins the lock-cheap hot paths as
// race-clean, and the totals check pins them as lossless.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h_seconds", "help", []float64{1, 2, 4})
	vec := r.CounterVec("v_total", "help", "k")

	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := vec.With("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(float64(i % 5))
				child.Inc()
			}
		}(w)
	}
	wg.Wait()

	const want = workers * perWorker
	if got := c.Value(); got != want {
		t.Errorf("counter = %v, want %v", got, want)
	}
	if got := g.Value(); got != math.Trunc(got) || got < 0 || got >= workers {
		t.Errorf("gauge = %v, want one worker's index", got)
	}
	if _, got, _ := h.snapshot(); got != want {
		t.Errorf("histogram count = %v, want %v", got, want)
	}
	if got := vec.With("shared").Value(); got != want {
		t.Errorf("vec counter = %v, want %v", got, want)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 7} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	// Boundary values land in the bucket they equal (le is inclusive).
	if cum[0] != 2 || cum[1] != 4 || cum[2] != 5 {
		t.Errorf("cumulative buckets = %v, want [2 4 5]", cum)
	}
	if count != 6 {
		t.Errorf("count = %d, want 6", count)
	}
	if sum != 15 {
		t.Errorf("sum = %v, want 15", sum)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", nil)
	if len(h.bounds) != len(LatencyBuckets) {
		t.Errorf("default bucket count = %d, want %d", len(h.bounds), len(LatencyBuckets))
	}
}

// TestPrometheusExpositionGolden pins the exact text format: family and
// child ordering, HELP/TYPE lines, label quoting, histogram buckets.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "Last alphabetically.").Add(3)
	gv := r.GaugeVec("cov", "Coverage by level.", "tau")
	gv.With("0.9").Set(0.875)
	gv.With("0.5").Set(0.5)
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cov Coverage by level.
# TYPE cov gauge
cov{tau="0.5"} 0.5
cov{tau="0.9"} 0.875
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 2.55
lat_seconds_count 3
# HELP z_total Last alphabetically.
# TYPE z_total counter
z_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "help").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

func TestBadBucketsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted buckets did not panic")
		}
	}()
	NewRegistry().Histogram("h", "help", []float64{1, 1})
}
