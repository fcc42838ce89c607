package robustscale_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// historyLine is one BENCH_history.jsonl record: a claimed gain on one
// end-to-end or per-layer metric of one workload, from alternating
// parent/change runs.
type historyLine struct {
	Commit       *string `json:"commit"`
	Parent       string  `json:"parent"`
	PR           int     `json:"pr"`
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	Unit         string  `json:"unit"`
	Better       string  `json:"better"`
	ParentMedian float64 `json:"parent_median"`
	ParentQ1     float64 `json:"parent_q1"`
	ParentQ3     float64 `json:"parent_q3"`
	ChangeMedian float64 `json:"change_median"`
	ChangeQ1     float64 `json:"change_q1"`
	ChangeQ3     float64 `json:"change_q3"`
	PairsWon     int     `json:"pairs_won"`
	Pairs        int     `json:"pairs"`
	Protocol     string  `json:"protocol"`
}

// TestBenchHistoryLines holds every BENCH_history.jsonl line to the
// benchmark it claims a gain on: the workload and the metric exist in
// BENCHMARK.json, with the unit and direction it declares there, the
// pair count is consistent, each side's quartiles are ordered, and the
// change's median sits on the better side of the parent's.
func TestBenchHistoryLines(t *testing.T) {
	type metric struct{ Name, Unit, Better string }
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads := map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	metrics := map[string]metric{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		metrics[m.Name] = m
	}

	raw, err = os.ReadFile("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	lines := 0
	for n := 1; sc.Scan(); n++ {
		lines++
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var l historyLine
		if err := dec.Decode(&l); err != nil {
			t.Errorf("line %d: %v", n, err)
			continue
		}
		if !workloads[l.Workload] {
			t.Errorf("line %d: workload %q is not in BENCHMARK.json", n, l.Workload)
		}
		m, ok := metrics[l.Metric]
		if !ok {
			t.Errorf("line %d: metric %q is not in BENCHMARK.json", n, l.Metric)
		} else if l.Unit != m.Unit || l.Better != m.Better {
			t.Errorf("line %d: %s in %s, %s better; BENCHMARK.json declares %s, %s better",
				n, l.Metric, l.Unit, l.Better, m.Unit, m.Better)
		}
		if l.Pairs < 1 || l.PairsWon < 0 || l.PairsWon > l.Pairs {
			t.Errorf("line %d: %d of %d pairs won", n, l.PairsWon, l.Pairs)
		}
		if !(l.ParentQ1 <= l.ParentMedian && l.ParentMedian <= l.ParentQ3) ||
			!(l.ChangeQ1 <= l.ChangeMedian && l.ChangeMedian <= l.ChangeQ3) {
			t.Errorf("line %d: quartiles out of order: parent %v/%v/%v, change %v/%v/%v", n,
				l.ParentQ1, l.ParentMedian, l.ParentQ3, l.ChangeQ1, l.ChangeMedian, l.ChangeQ3)
		}
		if !(l.Better == "lower" && l.ChangeMedian < l.ParentMedian ||
			l.Better == "higher" && l.ChangeMedian > l.ParentMedian) {
			t.Errorf("line %d: change median %v is not %s than parent median %v",
				n, l.ChangeMedian, l.Better, l.ParentMedian)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("BENCH_history.jsonl holds no line")
	}
}
