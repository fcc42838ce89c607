package robustscale_test

import (
	"context"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"robustscale/internal/fleet"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/ops"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

// TestMetricTableMatchesRegistry holds README's "Exported metric
// families" table to what the daemons serve on /metrics, both ways and
// kind for kind: obs.Default after runs that give every family a series,
// plus the ops status gauges.
func TestMetricTableMatchesRegistry(t *testing.T) {
	// A fleet under chaos with the pool, scale-to-zero, durability and the
	// SLO plane on feeds the fleet-side families; a label cap below the
	// tenant count feeds the overflow family.
	defer obs.Default.SetLabelLimit(obs.Default.LabelLimit())
	obs.Default.SetLabelLimit(2)
	cfg := fleet.DefaultConfig(4)
	cfg.Days, cfg.Chaos, cfg.PoolNodes, cfg.Serverless = 3, "fleet", 6, true
	cfg.SLOWindow, cfg.StateDir = 12, t.TempDir()
	ctrl, err := fleet.New(cfg)
	if err == nil {
		_, err = ctrl.Run(context.Background())
	}
	if err != nil {
		t.Fatal(err)
	}
	// An evaluation replay on a neural forecaster feeds the per-strategy
	// violation and per-model prediction counters.
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/24)
	}
	series := timeseries.New("sine", time.Unix(0, 0), timeseries.DefaultStep, vals)
	tft := forecast.NewTFT(forecast.TFTConfig{Context: 24, Hidden: 4, Epochs: 1, Seed: 1, MaxWindows: 8, TrainHorizon: 4})
	if err := tft.Fit(series.Slice(0, 150)); err != nil {
		t.Fatal(err)
	}
	robust := &scaler.Robust{Forecaster: tft, Tau: 0.9, Theta: 20}
	if _, err := scaler.Evaluate(robust, series, scaler.EvalConfig{Theta: 20, Horizon: 4, Start: 150}); err != nil {
		t.Fatal(err)
	}

	var exposition strings.Builder
	if err := obs.Default.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	status := ops.NewRegistry("robust", 60)
	status.Update(func(s *ops.Status) { s.Parks = 1 }) // the serverless gauges too
	rec := httptest.NewRecorder()
	status.MetricsHandlerFor(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	exposition.WriteString(rec.Body.String())
	served := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE robustscale_(\S+) (\S+)$`).FindAllStringSubmatch(exposition.String(), -1) {
		served[m[1]] = m[2]
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "| Family | Kind | What it measures |\n|---|---|---|\n")
	table, _, _ = strings.Cut(table, "\n\n")
	documented := map[string]string{}
	name := regexp.MustCompile("`([a-z_]+)(?:{[a-z_]+})?`")
	for _, row := range regexp.MustCompile(`(?m)^\| (.*) \| (\w+) \|`).FindAllStringSubmatch(table, -1) {
		for _, n := range name.FindAllStringSubmatch(row[1], -1) {
			documented[n[1]] = row[2]
		}
	}

	for fam, kind := range served {
		if documented[fam] != kind {
			t.Errorf("served %s is a %s; README metric table says %q", fam, kind, documented[fam])
		}
	}
	for fam := range documented {
		if served[fam] == "" {
			t.Errorf("README metric table documents %s, which nothing serves", fam)
		}
	}
}
