package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"robustscale/internal/obs"
)

func TestRegistryUpdateAndSnapshot(t *testing.T) {
	r := NewRegistry("tft-0.9", 100)
	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	r.Update(func(s *Status) {
		s.VirtualTime = now
		s.Nodes = 7
		s.Workload = 650
		s.Utilization = 0.93
		s.Steps = 42
		s.Violations = 3
		s.Plan = []int{7, 8, 8}
	})
	snap := r.Snapshot()
	if snap.Strategy != "tft-0.9" || snap.Theta != 100 {
		t.Errorf("static fields lost: %+v", snap)
	}
	if snap.Nodes != 7 || snap.Steps != 42 || len(snap.Plan) != 3 {
		t.Errorf("snapshot = %+v", snap)
	}
	// The snapshot's plan is a copy.
	snap.Plan[0] = 99
	if r.Snapshot().Plan[0] == 99 {
		t.Error("snapshot shares plan storage")
	}
}

func TestHandlerServesJSON(t *testing.T) {
	r := NewRegistry("reactive-max", 50)
	r.Update(func(s *Status) { s.Nodes = 3; s.Violations = 1 })
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Strategy != "reactive-max" || got.Nodes != 3 || got.Violations != 1 {
		t.Errorf("decoded = %+v", got)
	}
}

func TestMetricsHandlerPrometheusFormat(t *testing.T) {
	r := NewRegistry("tft-0.9", 100)
	r.Update(func(s *Status) {
		s.Nodes = 12
		s.Violations = 4
		s.Utilization = 0.87
	})
	srv := httptest.NewServer(r.MetricsHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"robustscale_nodes 12",
		"robustscale_violations_total 4",
		"robustscale_utilization 0.87",
		"robustscale_theta 100",
		"# TYPE robustscale_nodes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	// POST rejected.
	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", post.StatusCode)
	}
}

func TestHandlerRejectsNonGET(t *testing.T) {
	r := NewRegistry("x", 1)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry("x", 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Update(func(s *Status) { s.Steps++ })
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Steps; got != 800 {
		t.Errorf("steps = %d, want 800", got)
	}
}

// TestMetricsHandlerComposesObsRegistry checks that /metrics serves the
// status gauges followed by every instrument of the obs registry, so one
// endpoint covers the whole daemon.
func TestMetricsHandlerComposesObsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("robustscale_custom_total", "A custom counter.").Add(7)
	reg.HistogramVec("robustscale_stage_duration_seconds",
		"Control-loop stage latency in seconds.", "stage", []float64{0.01, 0.1}).
		With("forecast").Observe(0.05)

	r := NewRegistry("tft-0.9", 100)
	r.Update(func(s *Status) { s.Nodes = 2 })
	srv := httptest.NewServer(r.MetricsHandlerFor(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"robustscale_nodes 2",
		"robustscale_custom_total 7",
		`robustscale_stage_duration_seconds_bucket{stage="forecast",le="0.1"} 1`,
		`robustscale_stage_duration_seconds_count{stage="forecast"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	// Status gauges come first, obs families after.
	if strings.Index(text, "robustscale_nodes") > strings.Index(text, "robustscale_custom_total") {
		t.Error("status gauges should precede obs registry families")
	}
}

// TestObserveApply checks the daemon-side apply-stage helper feeds the
// shared histogram family on obs.Default.
func TestObserveApply(t *testing.T) {
	before := stageSeconds.With(StageApply).Count()
	ObserveApply(3 * time.Millisecond)
	if got := stageSeconds.With(StageApply).Count(); got != before+1 {
		t.Errorf("apply-stage observations = %d, want %d", got, before+1)
	}
}
