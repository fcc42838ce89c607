//go:build linux

package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"robustscale/internal/forecast"
)

// smokeSizes shrinks every workload to a hundred tenants and a few days
// and the neural models to a few units, so the whole benchmark runs under
// `go test -short ./...` and cannot rot. Each measured region still burns
// tens of milliseconds of CPU: with tick-based CPU accounting a region of
// a few milliseconds can read as zero user time.
func smokeSizes() sizes {
	sz := fullSizes()
	sz.replayTenants, sz.replayDays = 100, 10
	sz.durableTenants, sz.durableRounds, sz.restartRounds = 40, 3, 1
	sz.stormTenants, sz.stormDays = 100, 8
	sz.paperTrainDays, sz.paperEvalDays, sz.paperUnits = 2, 3, 2
	sz.deepar = forecast.DeepARConfig{Context: 24, Hidden: 16, Epochs: 1, MaxWindows: 8, Samples: 50, TrainHorizon: 12}
	sz.tft = forecast.TFTConfig{Context: 24, Hidden: 16, Epochs: 1, MaxWindows: 8, TrainHorizon: 12, Levels: forecast.DefaultLevels}
	sz.driveTenants, sz.driveRounds, sz.checkpointEvery = 4, 4, 2
	sz.kernelIters = 1 << 10
	sz.minReps = 2
	return sz
}

// Rows that are differences (may be negative) or counts and tick-grained
// CPU readings that are legitimately zero on a tiny or fault-free run.
var (
	signedRows = map[string]bool{
		"obs.decisions_on_overhead_pct":          true,
		"bench.trace_overhead_pct":               true,
		"fleet.unattributed_us_per_tenant_round": true,
	}
	mayBeZeroRows = map[string]bool{
		"cluster.violation_rate_pct":          true,
		"cluster.holds":                       true,
		"chaos.faults_injected":               true,
		"forecast.predict_allocs_per_round":   true,
		"fleet.gc_cycles":                     true,
		"fleet.sys_cpu_us_per_tenant_round":   true,
		"persist.write_user_us":               true,
		"persist.sys_cpu_us_per_tenant_round": true,
	}
)

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 7, sz: smokeSizes(), workers: pinWorkers(), root: tempRoot}
			res, err := runEndToEnd(w, e, 0)
			if errors.Is(err, errMemoryBacked) {
				t.Skip(err)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("end-to-end run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("end-to-end run emitted %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a finite positive value in %s", m.name, v, ok, m.unit)
				}
			}

			traceOut := filepath.Join(t.TempDir(), "trace.json")
			res, err = runTraced(w, e, traceOut)
			if errors.Is(err, errMemoryBacked) {
				t.Skip(err)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				v, ok := res.Metrics[m.name]
				switch {
				case !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s = %+v (present %v), want a finite value in %s", m.name, v, ok, m.unit)
				case signedRows[m.name]:
				case v.Value < 0 || v.Value == 0 && !mayBeZeroRows[m.name]:
					t.Errorf("%s = %v, want positive", m.name, v.Value)
				}
			}

			raw, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name, Ph string
					Dur      float64
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("trace file holds no spans")
			}
			for _, ev := range doc.TraceEvents {
				if ev.Name == "" || ev.Ph != "X" || ev.Dur < 0 {
					t.Fatalf("malformed span %+v", ev)
				}
			}
		})
	}
	if err := os.Remove(tempRoot); err != nil && !os.IsNotExist(err) {
		t.Errorf("state dirs left behind under %s: %v", tempRoot, err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables the
// program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command %v, want %v", doc.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %v, want %v", doc.Paths, want)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
