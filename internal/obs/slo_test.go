package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func sloTestConfig() SLOConfig {
	return SLOConfig{
		Target: 0.01,
		Window: 48,
		Rules: []BurnRule{
			{Name: "page", Factor: 10, Long: 6, Short: 2},
			{Name: "ticket", Factor: 3, Long: 24, Short: 6},
		},
	}
}

func sloTime(tick int) time.Time {
	return time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(tick) * 10 * time.Minute)
}

func TestSLOConfigValidate(t *testing.T) {
	if err := sloTestConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []SLOConfig{
		{Target: 0, Window: 48}, {Target: -0.1, Window: 48}, {Target: 1, Window: 48},
		{Target: math.NaN(), Window: 48}, {Target: 0.01, Window: 0},
		{Target: 0.01, Window: 4, Rules: []BurnRule{{Factor: 2, Long: 8, Short: 1}}},
		// Rules that can never fire, or that share a gauge label.
		{Target: 0.01, Window: 4, Rules: []BurnRule{{Name: "page", Factor: math.NaN(), Long: 2, Short: 1}}},
		{Target: 0.01, Window: 4, Rules: []BurnRule{{Name: "page", Factor: math.Inf(1), Long: 2, Short: 1}}},
		{Target: 0.01, Window: 4, Rules: []BurnRule{{Factor: 2, Long: 2, Short: 1}}},
		{Target: 0.01, Window: 4, Rules: []BurnRule{{Name: "a", Factor: 1, Long: 2, Short: 1}, {Name: "a", Factor: 2, Long: 2, Short: 1}}},
	} {
		if bad.Validate() == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func TestSLOTrackerBurnRateFiring(t *testing.T) {
	s := NewSLOTracker(sloTestConfig())
	// 10 clean ticks of 100 observations: no alert.
	for i := 0; i < 10; i++ {
		s.ObserveAt(sloTime(i), 0, 100)
	}
	if st := s.Status(); st.ActiveAlerts != 0 || st.BudgetRemaining != 1 {
		t.Fatalf("clean run: %+v", st)
	}
	// A sustained breach: 20% bad is a 20x burn, above both factors.
	tick := 10
	for i := 0; i < 6; i++ {
		s.ObserveAt(sloTime(tick), 20, 100)
		tick++
	}
	st := s.Status()
	if st.ActiveAlerts != 2 {
		t.Fatalf("both rules should fire under 20x burn: %+v", st)
	}
	first, ok := s.FirstFiring()
	if !ok {
		t.Fatal("FirstFiring reports no alert")
	}
	// The ticket rule fires first: at tick 12 its long window (24,
	// clamped to the 12 observed ticks) holds 40 bad of 1200, a
	// (40/1200)/0.01 = 3.33x burn ≥ 3, and its short window (6) reads
	// 6.67x; at tick 11 the long burn was only 1.82x.
	if first != 12 {
		t.Errorf("first firing tick = %d, want 12", first)
	}
	if st.BudgetRemaining >= 0 {
		t.Errorf("budget should be overspent, got %v", st.BudgetRemaining)
	}
	// Recovery: clean ticks push the short windows clean; both resolve.
	for i := 0; i < 30; i++ {
		s.ObserveAt(sloTime(tick), 0, 100)
		tick++
	}
	st = s.Status()
	if st.ActiveAlerts != 0 {
		t.Fatalf("alerts should resolve after recovery: %+v", st)
	}
	if st.Transitions < 4 {
		t.Errorf("expected >= 4 transitions (2 fire + 2 resolve), got %d", st.Transitions)
	}
	hist := s.History()
	if len(hist) < 4 || !hist[0].Firing || hist[len(hist)-1].Firing {
		t.Errorf("history should start with a fire and end with a resolve: %+v", hist)
	}
}

func TestSLOTrackerDeterministicReruns(t *testing.T) {
	run := func() SLOStatus {
		s := NewSLOTracker(sloTestConfig())
		for i := 0; i < 100; i++ {
			bad := uint64(0)
			if i%7 == 3 || (i > 40 && i < 55) {
				bad = uint64(5 + i%13)
			}
			s.ObserveAt(sloTime(i), bad, 100)
		}
		return s.Status()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rerun status differs:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSLOTrackerJournalEvents(t *testing.T) {
	j := NewJournal(32)
	s := NewSLOTracker(sloTestConfig())
	s.Journal = j
	s.Tenant = "t00042"
	for i := 0; i < 8; i++ {
		s.ObserveAt(sloTime(i), 50, 100)
	}
	events := j.EventsFilteredTenant("t00042", "alert", 0)
	if len(events) < 2 {
		t.Fatalf("expected alert journal events, got %+v", events)
	}
	if events[0].Fields["factor"] == 0 || events[0].Fields["tick"] == 0 {
		t.Errorf("alert event missing fields: %+v", events[0])
	}
}

func TestSLOTrackerSaveLoadResumes(t *testing.T) {
	observe := func(s *SLOTracker, from, to int) {
		for i := from; i < to; i++ {
			bad := uint64(0)
			if i >= 30 && i < 44 {
				bad = 25
			}
			s.ObserveAt(sloTime(i), bad, 100)
		}
	}
	// Uninterrupted reference run.
	ref := NewSLOTracker(sloTestConfig())
	observe(ref, 0, 60)

	// Interrupted run: save at tick 35 (mid-breach), restore, continue.
	a := NewSLOTracker(sloTestConfig())
	observe(a, 0, 35)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewSLOTracker(sloTestConfig())
	if err := b.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	observe(b, 35, 60)

	rs, bs := ref.Status(), b.Status()
	if !reflect.DeepEqual(rs, bs) {
		t.Fatalf("restored run diverged:\n%+v\nvs\n%+v", rs, bs)
	}
	ff1, _ := ref.FirstFiring()
	ff2, _ := b.FirstFiring()
	if ff1 != ff2 {
		t.Errorf("first firing tick diverged: %d vs %d", ff1, ff2)
	}

	// Config mismatch must be rejected.
	mismatch := NewSLOTracker(SLOConfig{Target: 0.05, Window: 48, Rules: sloTestConfig().Rules})
	if err := mismatch.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected config-mismatch error")
	}
}

func TestSLOHandlers(t *testing.T) {
	s := NewSLOTracker(sloTestConfig())
	for i := 0; i < 10; i++ {
		s.ObserveAt(sloTime(i), 30, 100)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SLOStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Target != 0.01 || st.Tick != 10 || len(st.Rules) != 2 || st.ActiveAlerts == 0 {
		t.Errorf("slo status: %+v", st)
	}

	asrv := httptest.NewServer(s.AlertsHandler())
	defer asrv.Close()
	aresp, err := http.Get(asrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var alerts struct {
		Active  []RuleStatus `json:"active"`
		History []AlertEvent `json:"history"`
	}
	if err := json.NewDecoder(aresp.Body).Decode(&alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts.Active) == 0 || len(alerts.History) == 0 {
		t.Errorf("alerts payload: %+v", alerts)
	}
}

func TestParseBurnRules(t *testing.T) {
	rules, err := ParseBurnRules("page=14.4x:6/1,ticket=6x:36/3")
	if err != nil {
		t.Fatal(err)
	}
	want := []BurnRule{
		{Name: "page", Factor: 14.4, Long: 6, Short: 1},
		{Name: "ticket", Factor: 6, Long: 36, Short: 3},
	}
	if !reflect.DeepEqual(rules, want) {
		t.Errorf("parsed %+v, want %+v", rules, want)
	}
	if rules, err = ParseBurnRules("2x:10/2"); err != nil || rules[0].Name != "rule0" {
		t.Errorf("unnamed rule: %+v, %v", rules, err)
	}
	for _, bad := range []string{"", "x:6/1", "page=14.4x:1/6", "3x:nope/1", "3x:6-1",
		"page=NaNx:6/1", "page=Infx:6/1", "=2x:6/1", "a=1x:6/1,a=2x:6/1", "rule1=1x:6/1,2x:6/1"} {
		if _, err := ParseBurnRules(bad); err == nil {
			t.Errorf("ParseBurnRules(%q) should fail", bad)
		}
	}
}

// FuzzParseBurnRules: no spec panics the parser, and every spec it
// accepts drives a tracker: it passes Validate at a window as long as its
// longest rule.
func FuzzParseBurnRules(f *testing.F) {
	for _, spec := range []string{"page=14.4x:6/1,ticket=6x:36/3", "2x:10/2", "page=NaNx:6/1",
		"a=1x:6/1,a=2x:6/1", "=2x:6/1", " , 1e308x:3/3"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseBurnRules(spec)
		if err != nil {
			return
		}
		cfg := SLOConfig{Target: 0.01, Rules: rules}
		for _, r := range rules {
			cfg.Window = max(cfg.Window, r.Long)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseBurnRules(%q) = %+v, which Validate rejects: %v", spec, rules, err)
		}
	})
}

func TestDefaultBurnRules(t *testing.T) {
	rules := DefaultBurnRules(288)
	if len(rules) != 2 || rules[0].Name != "page" || rules[1].Name != "ticket" {
		t.Fatalf("default rules: %+v", rules)
	}
	for _, r := range rules {
		if r.Short < 1 || r.Long < r.Short || r.Long > 288 {
			t.Errorf("rule %+v violates window constraints", r)
		}
	}
	// A tiny window still yields valid (degenerate) rules.
	for _, r := range DefaultBurnRules(1) {
		if r.Short != 1 || r.Long != 1 {
			t.Errorf("window-1 rule %+v should clamp to 1/1", r)
		}
	}
}

func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	live := httptest.NewServer(h.LiveHandler())
	ready := httptest.NewServer(h.ReadyHandler())
	defer live.Close()
	defer ready.Close()

	if resp, err := http.Get(live.URL); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ready.URL); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before ready: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	h.SetReady(true)
	if resp, err := http.Get(ready.URL); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after ready: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if !h.Ready() {
		t.Error("Ready() should report true")
	}
}
