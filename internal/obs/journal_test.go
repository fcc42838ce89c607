package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestJournalWraparound(t *testing.T) {
	j := NewJournal(4)
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 1; i <= 10; i++ {
		j.RecordTenantAt(base.Add(time.Duration(i)*time.Minute), "", "scale", fmt.Sprintf("event %d", i), map[string]float64{"i": float64(i)})
	}
	_, events := j.Events("", "", 0)
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Fields["i"] != float64(wantSeq) {
			t.Errorf("event %d payload = %v, want %d", i, e.Fields["i"], wantSeq)
		}
	}
	if j.Total() != 10 || j.Dropped() != 6 || j.Len() != 4 || j.capacity != 4 {
		t.Errorf("total/dropped/len/cap = %d/%d/%d/%d, want 10/6/4/4", j.Total(), j.Dropped(), j.Len(), j.capacity)
	}
}

func TestJournalCopiesFields(t *testing.T) {
	j := NewJournal(2)
	fields := map[string]float64{"nodes": 3}
	j.RecordTenantAt(time.Now(), "", "scale", "up", fields)
	fields["nodes"] = 99
	if _, events := j.Events("", "", 0); events[0].Fields["nodes"] != 3 {
		t.Errorf("journal shares the caller's fields map: %v", events[0].Fields)
	}
}

func TestJournalConcurrentRecord(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.RecordTenantAt(time.Now(), "", "k", "m", nil)
				j.Events("", "", 0)
			}
		}()
	}
	wg.Wait()
	if j.Total() != 1600 {
		t.Errorf("total = %d, want 1600", j.Total())
	}
}

func TestJournalHandler(t *testing.T) {
	j := NewJournal(8)
	j.RecordTenantAt(time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC), "", "fault", "killed 1 node", map[string]float64{"killed": 1})
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var export struct {
		Capacity int     `json:"capacity"`
		Total    uint64  `json:"total"`
		Dropped  uint64  `json:"dropped"`
		Events   []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
		t.Fatal(err)
	}
	if export.Capacity != 8 || export.Total != 1 || export.Dropped != 0 {
		t.Errorf("export meta = %+v", export)
	}
	if len(export.Events) != 1 || export.Events[0].Kind != "fault" || export.Events[0].Fields["killed"] != 1 {
		t.Errorf("export events = %+v", export.Events)
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

func TestJournalEventsFiltered(t *testing.T) {
	j := NewJournal(8)
	j.RecordTenantAt(time.Now(), "", "scale", "up", nil)
	j.RecordTenantAt(time.Now(), "", "violation", "breach", nil)
	j.RecordTenantAt(time.Now(), "", "scale", "down", nil)

	if stats, got := j.Events("", "", 0); len(got) != 3 || stats != (ringStats{8, 3, 0}) {
		t.Errorf("unfiltered kept %d, stats %+v; want 3 and {8 3 0}", len(got), stats)
	}
	_, got := j.Events("", "scale", 0)
	if len(got) != 2 || got[0].Msg != "up" || got[1].Msg != "down" {
		t.Errorf("kind filter = %+v", got)
	}
	if stats, got := j.Events("", "", 2); len(got) != 1 || got[0].Seq != 3 || stats.Total != 3 {
		t.Errorf("since_seq filter = %+v, stats %+v", got, stats)
	}
	if _, got := j.Events("", "violation", 2); len(got) != 0 {
		t.Errorf("combined filter = %+v", got)
	}
}

func TestJournalHandlerFilters(t *testing.T) {
	j := NewJournal(8)
	j.RecordTenantAt(time.Now(), "", "scale", "up", nil)
	j.RecordTenantAt(time.Now(), "", "violation", "breach", nil)
	j.RecordTenantAt(time.Now(), "", "scale", "down", nil)
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	var export struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	get := func(query string) int {
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		export.Events = nil
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	if code := get("?kind=scale"); code != http.StatusOK || len(export.Events) != 2 {
		t.Errorf("kind filter: code %d, %d events", code, len(export.Events))
	}
	// Total still reports the whole journal even when the view is filtered.
	if export.Total != 3 {
		t.Errorf("filtered total = %d, want 3", export.Total)
	}
	if code := get("?since_seq=1&kind=scale"); code != http.StatusOK ||
		len(export.Events) != 1 || export.Events[0].Msg != "down" {
		t.Errorf("combined filter: code %d, %+v", code, export.Events)
	}
	if code := get("?since_seq=banana"); code != http.StatusBadRequest {
		t.Errorf("bad since_seq: code %d, want 400", code)
	}
}

func TestJournalHandlerTenantFilter(t *testing.T) {
	j := NewJournal(8)
	now := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	j.RecordTenantAt(now, "t00001", "scale", "up", nil)
	j.RecordTenantAt(now, "t00002", "scale", "up", nil)
	j.RecordTenantAt(now, "t00001", "alert", "page firing", nil)
	j.RecordTenantAt(now, "", "scale", "down", nil)
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	var export struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	get := func(query string) int {
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		export.Events = nil
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	if code := get("?tenant=t00001"); code != http.StatusOK || len(export.Events) != 2 {
		t.Fatalf("tenant filter: code %d, %d events", code, len(export.Events))
	}
	for _, e := range export.Events {
		if e.Tenant != "t00001" {
			t.Errorf("tenant filter leaked event %+v", e)
		}
	}
	if code := get("?tenant=t00001&kind=alert"); code != http.StatusOK ||
		len(export.Events) != 1 || export.Events[0].Msg != "page firing" {
		t.Errorf("tenant+kind filter: code %d, %+v", code, export.Events)
	}
	if code := get("?tenant=t00001&since_seq=1"); code != http.StatusOK ||
		len(export.Events) != 1 || export.Events[0].Kind != "alert" {
		t.Errorf("tenant+since_seq filter: code %d, %+v", code, export.Events)
	}
	if code := get("?tenant=t99999"); code != http.StatusOK || len(export.Events) != 0 {
		t.Errorf("unknown tenant: code %d, %d events", code, len(export.Events))
	}
	// No tenant param returns all events, whatever their tenant label.
	if code := get(""); code != http.StatusOK || len(export.Events) != 4 {
		t.Errorf("unfiltered: code %d, %d events", code, len(export.Events))
	}
}
