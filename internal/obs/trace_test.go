package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start("plan-round")
	sp.End()
	sp = tr.StartTID("deepar.sample", WorkerTID0)
	sp.EndVirtual(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Errorf("disabled tracer recorded %d spans (%d total)", tr.Len(), tr.Total())
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.SetEnabled(true)
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.Start("x")
	sp.End()
	sp.EndVirtual(time.Now())
	var zero Span
	zero.End()
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(8)
	tr.SetEnabled(true)
	vt := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	sp := tr.Start("plan-round")
	sp.EndVirtual(vt)
	sp = tr.StartTID("deepar.sample", WorkerTID0+3)
	sp.End()
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("retained %d spans, want 2", len(events))
	}
	if events[0].Name != "plan-round" || events[0].TID != ControlTID || !events[0].VT.Equal(vt) {
		t.Errorf("control span = %+v", events[0])
	}
	if events[1].Name != "deepar.sample" || events[1].TID != WorkerTID0+3 || !events[1].VT.IsZero() {
		t.Errorf("worker span = %+v", events[1])
	}
	for i, ev := range events {
		if ev.Start < 0 || ev.Dur < 0 {
			t.Errorf("span %d has negative offsets: %+v", i, ev)
		}
	}
}

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Start("s").End()
	}
	if tr.Len() != 4 || tr.capacity != 4 || tr.Total() != 10 || tr.Dropped() != 6 {
		t.Errorf("len/cap/total/dropped = %d/%d/%d/%d, want 4/4/10/6",
			tr.Len(), tr.capacity, tr.Total(), tr.Dropped())
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Errorf("reset left len/total/dropped = %d/%d/%d", tr.Len(), tr.Total(), tr.Dropped())
	}
}

// TestTracerConcurrent exercises concurrent open/close from many
// goroutines — the shape of parallel worker instrumentation — and runs
// under -race in CI.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartTID("work", uint64(WorkerTID0+worker))
				sp.End()
				if i%32 == 0 {
					tr.Events()
					tr.SetEnabled(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Total() != 1600 {
		t.Errorf("total = %d, want 1600", tr.Total())
	}
}

// chromeEvent mirrors the fields a Chrome trace consumer requires.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   *float64          `json:"ts"`
	Dur  *float64          `json:"dur"`
	PID  *int              `json:"pid"`
	TID  *uint64           `json:"tid"`
	Args map[string]string `json:"args"`
}

func decodeChrome(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var out struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	return out.TraceEvents
}

func TestWriteChromeSchema(t *testing.T) {
	tr := NewTracer(64)
	tr.SetEnabled(true)
	vt := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		sp := tr.Start("plan-round")
		sp.EndVirtual(vt.Add(time.Duration(i) * time.Hour))
	}
	sp0 := tr.StartTID("sample", WorkerTID0)
	sp1 := tr.StartTID("sample", WorkerTID0+1)
	sp1.End()
	sp0.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	events := decodeChrome(t, buf.Bytes())

	var spans, metas int
	lastTS := map[uint64]float64{}
	for i, ev := range events {
		switch ev.Ph {
		case "M":
			metas++
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Errorf("event %d: bad metadata %+v", i, ev)
			}
		case "X":
			spans++
			if ev.TS == nil || ev.Dur == nil || ev.PID == nil || ev.TID == nil {
				t.Fatalf("event %d: missing required ph/ts/dur/pid/tid fields: %+v", i, ev)
			}
			if *ev.TS < lastTS[*ev.TID] {
				t.Errorf("event %d: ts %v not monotone on tid %d", i, *ev.TS, *ev.TID)
			}
			lastTS[*ev.TID] = *ev.TS
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	if spans != 5 {
		t.Errorf("exported %d span events, want 5", spans)
	}
	if metas != 3 { // control + two worker rows
		t.Errorf("exported %d thread_name rows, want 3", metas)
	}
	// The virtual-time stamp round-trips through args.
	var stamped int
	for _, ev := range events {
		if ev.Ph == "X" && ev.Args["vt"] != "" {
			if _, err := time.Parse(time.RFC3339Nano, ev.Args["vt"]); err != nil {
				t.Errorf("bad vt stamp %q: %v", ev.Args["vt"], err)
			}
			stamped++
		}
	}
	if stamped != 3 {
		t.Errorf("%d spans carry a vt stamp, want 3", stamped)
	}
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(8)
	tr.SetEnabled(true)
	tr.Start("plan-round").End()
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	events := decodeChrome(t, buf.Bytes())
	if len(events) == 0 {
		t.Error("handler served an empty trace")
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

func TestWriteChromeFile(t *testing.T) {
	tr := NewTracer(8)
	tr.SetEnabled(true)
	tr.Start("plan-round").End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if events := decodeChrome(t, data); len(events) != 2 { // meta + span
		t.Errorf("file holds %d events, want 2", len(events))
	}
}
