package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func adaptiveDecision(step int, prev int) Decision {
	return Decision{
		Time:      time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
		Strategy:  "tft-adaptive-0.7/0.99",
		Step:      step,
		Horizon:   3,
		Theta:     100,
		PrevNodes: prev,
		Nodes:     []int{4, 7, 7},
		Delta:     4 - prev,
		U:         []float64{0.05, 0.14, 0.2},
		Tau:       []float64{0.7, 0.99, 0.99},
		Tau1:      0.7, Tau2: 0.99, Rho: 0.11,
		Quantile: []float64{390, 681, 612},
		Binding:  []string{BindingDemand, BindingDemand, BindingDemand},
	}
}

func TestDecisionStoreRecordAndWraparound(t *testing.T) {
	s := NewDecisionStore(3)
	for i := 0; i < 7; i++ {
		seq := s.Record(Decision{Strategy: "r", Step: i * 10, Nodes: []int{1}})
		if seq != uint64(i+1) {
			t.Errorf("record %d assigned seq %d", i, seq)
		}
	}
	ds := s.Decisions()
	if len(ds) != 3 || s.Len() != 3 || s.capacity != 3 || s.Total() != 7 || s.Dropped() != 4 {
		t.Fatalf("len/cap/total/dropped = %d/%d/%d/%d (kept %d)", s.Len(), s.capacity, s.Total(), s.Dropped(), len(ds))
	}
	for i, d := range ds {
		if d.Seq != uint64(5+i) || d.Step != (4+i)*10 {
			t.Errorf("kept[%d] = seq %d step %d", i, d.Seq, d.Step)
		}
	}
	s.Reset()
	if s.Len() != 0 || s.Total() != 0 {
		t.Errorf("reset left len/total = %d/%d", s.Len(), s.Total())
	}
}

func TestDecisionStoreEnabledGate(t *testing.T) {
	s := NewDecisionStore(4)
	if s.Enabled() {
		t.Error("store starts enabled; capture should be opt-in")
	}
	s.SetEnabled(true)
	if !s.Enabled() {
		t.Error("SetEnabled(true) not observed")
	}
	s.SetEnabled(false)
	if s.Enabled() {
		t.Error("SetEnabled(false) not observed")
	}
	var nilStore *DecisionStore
	nilStore.SetEnabled(true) // must not panic
	if nilStore.Enabled() {
		t.Error("nil store reports enabled")
	}
}

func TestDecisionStoreFilterAndLookup(t *testing.T) {
	s := NewDecisionStore(16)
	s.Record(Decision{Strategy: "a", Step: 0, Nodes: []int{1, 1}})
	s.Record(Decision{Strategy: "b", Step: 2, Nodes: []int{2, 2}})
	s.Record(Decision{Strategy: "a", Step: 4, Nodes: []int{3, 3}})

	if got := s.FilterTenant("", "a", 0, -1); len(got) != 2 {
		t.Errorf("Filter(a) kept %d, want 2", len(got))
	}
	if got := s.FilterTenant("", "", 2, 3); len(got) != 1 || got[0].Strategy != "b" {
		t.Errorf("Filter(steps 2..3) = %+v", got)
	}
	if got := s.FilterTenant("", "", 5, -1); len(got) != 1 || got[0].Step != 4 {
		t.Errorf("Filter(from 5) = %+v", got)
	}
	if got := s.FilterTenant("", "c", 0, -1); len(got) != 0 {
		t.Errorf("Filter(unknown strategy) = %+v", got)
	}

	if d, ok := s.At(3); !ok || d.Strategy != "b" {
		t.Errorf("At(3) = %+v, %v", d, ok)
	}
	if _, ok := s.At(99); ok {
		t.Error("At(99) found a decision")
	}
	if d, ok := s.Latest(); !ok || d.Step != 4 {
		t.Errorf("Latest() = %+v, %v", d, ok)
	}
	if _, ok := NewDecisionStore(4).Latest(); ok {
		t.Error("Latest() on empty store found a decision")
	}
}

func TestDecisionAtPrefersNewest(t *testing.T) {
	s := NewDecisionStore(8)
	s.Record(Decision{Strategy: "old", Step: 0, Nodes: []int{1, 1, 1}})
	s.Record(Decision{Strategy: "new", Step: 2, Nodes: []int{2}})
	if d, _ := s.At(2); d.Strategy != "new" {
		t.Errorf("At(2) = %q, want the newest covering round", d.Strategy)
	}
}

func TestExplainEscalated(t *testing.T) {
	d := adaptiveDecision(120, 3)
	got := d.Explain(121)
	for _, want := range []string{
		"step 121", "scaled 4 -> 7", "q0.99(t+1)=681", "> capacity(4)=400",
		"U=0.14 >= rho=0.11 so tau escalated to 0.99",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Explain = %q, missing %q", got, want)
		}
	}
}

func TestExplainHeldAndCalm(t *testing.T) {
	d := adaptiveDecision(120, 3)
	got := d.Explain(120)
	for _, want := range []string{
		"scaled 3 -> 4", "q0.7(t+0)=390", "U=0.05 < rho=0.11 so tau stayed at 0.7",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Explain = %q, missing %q", got, want)
		}
	}
	if got := d.Explain(122); !strings.Contains(got, "held 7 nodes") {
		t.Errorf("Explain(held) = %q", got)
	}
	if got := d.Explain(999); !strings.Contains(got, "outside round") {
		t.Errorf("Explain(outside) = %q", got)
	}
}

func TestExplainBindingSuffix(t *testing.T) {
	d := Decision{
		Strategy: "robust", Step: 10, Theta: 100, PrevNodes: 2,
		Nodes: []int{1}, Quantile: []float64{0},
		Binding: []string{BindingFloor},
	}
	if got := d.Explain(10); !strings.Contains(got, "[binding: floor]") {
		t.Errorf("Explain = %q, missing floor binding", got)
	}
	// A reactive decision with no quantile levels names the demand drive.
	d2 := Decision{Strategy: "reactive-max", Step: 0, Theta: 100, PrevNodes: 1,
		Nodes: []int{2}, Quantile: []float64{150}, Binding: []string{BindingDemand}}
	if got := d2.Explain(0); !strings.Contains(got, "demand(t+0)=150") {
		t.Errorf("Explain = %q, missing demand drive", got)
	}
}

func TestExplainShedSuffix(t *testing.T) {
	d := Decision{
		Strategy: "robust", Step: 10, Theta: 100, PrevNodes: 5,
		Nodes: []int{4}, Quantile: []float64{700},
		Shed: 3, ShedReason: "pool-exhausted",
	}
	if got := d.Explain(10); !strings.Contains(got, "[shed: 3 nodes — pool-exhausted]") {
		t.Errorf("Explain = %q, missing shed annotation", got)
	}
	d.Shed, d.ShedReason = 1, ""
	if got := d.Explain(10); !strings.Contains(got, "[shed: 1 node]") {
		t.Errorf("Explain = %q, missing singular shed annotation", got)
	}
	// Quarantined rounds annotate even with nothing clipped.
	d.Shed, d.ShedReason = 0, "quarantine"
	if got := d.Explain(10); !strings.Contains(got, "[shed: 0 nodes — quarantine]") {
		t.Errorf("Explain = %q, missing quarantine annotation", got)
	}
	d.Shed, d.ShedReason = 0, ""
	if got := d.Explain(10); strings.Contains(got, "[shed:") {
		t.Errorf("Explain = %q, unexpected shed annotation", got)
	}
}

func TestDecisionHandler(t *testing.T) {
	s := NewDecisionStore(8)
	s.Record(adaptiveDecision(120, 3))
	s.Record(Decision{Strategy: "reactive-max", Step: 123, Nodes: []int{2}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var export struct {
		Capacity  int        `json:"capacity"`
		Total     uint64     `json:"total"`
		Dropped   uint64     `json:"dropped"`
		Decisions []Decision `json:"decisions"`
	}
	get := func(query string) int {
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		export.Decisions = nil
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	if code := get(""); code != http.StatusOK || len(export.Decisions) != 2 || export.Total != 2 {
		t.Errorf("unfiltered: code %d, %d decisions, total %d", code, len(export.Decisions), export.Total)
	}
	if code := get("?strategy=reactive-max"); code != http.StatusOK || len(export.Decisions) != 1 {
		t.Errorf("strategy filter: code %d, %d decisions", code, len(export.Decisions))
	}
	if code := get("?from=120&to=122"); code != http.StatusOK || len(export.Decisions) != 1 ||
		export.Decisions[0].Tau1 != 0.7 {
		t.Errorf("step filter: code %d, %+v", code, export.Decisions)
	}
	if code := get("?from=nope"); code != http.StatusBadRequest {
		t.Errorf("bad from: code %d, want 400", code)
	}
	if code := get("?to=nope"); code != http.StatusBadRequest {
		t.Errorf("bad to: code %d, want 400", code)
	}

	post, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

func TestDecisionHandlerTenantFilter(t *testing.T) {
	s := NewDecisionStore(8)
	d1 := adaptiveDecision(120, 3)
	d1.Tenant = "t00001"
	s.Record(d1)
	d2 := adaptiveDecision(121, 4)
	d2.Tenant = "t00002"
	s.Record(d2)
	s.Record(Decision{Strategy: "reactive-max", Step: 122, Nodes: []int{2}, Tenant: "t00001"})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var export struct {
		Decisions []Decision `json:"decisions"`
	}
	get := func(query string) int {
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		export.Decisions = nil
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	if code := get("?tenant=t00001"); code != http.StatusOK || len(export.Decisions) != 2 {
		t.Fatalf("tenant filter: code %d, %d decisions", code, len(export.Decisions))
	}
	for _, d := range export.Decisions {
		if d.Tenant != "t00001" {
			t.Errorf("tenant filter leaked decision %+v", d)
		}
	}
	if code := get("?tenant=t00001&strategy=reactive-max"); code != http.StatusOK ||
		len(export.Decisions) != 1 || export.Decisions[0].Step != 122 {
		t.Errorf("tenant+strategy filter: code %d, %+v", code, export.Decisions)
	}
	if code := get("?tenant=t00001&from=120&to=121"); code != http.StatusOK ||
		len(export.Decisions) != 1 || export.Decisions[0].Step != 120 {
		t.Errorf("tenant+range filter: code %d, %+v", code, export.Decisions)
	}
	if code := get("?tenant=missing"); code != http.StatusOK || len(export.Decisions) != 0 {
		t.Errorf("unknown tenant: code %d, %d decisions", code, len(export.Decisions))
	}
}
