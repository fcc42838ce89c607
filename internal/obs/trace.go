package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace rows (Chrome trace "thread ids"). The sequential control loop —
// plan rounds, forecast/optimize/apply stages — records on ControlTID;
// parallel worker spans record on WorkerTID0+worker so fan-out phases
// render as side-by-side lanes in Perfetto.
const (
	ControlTID = 1
	WorkerTID0 = 2
)

// SpanEvent is one completed span: a named interval on a trace row.
// Offsets are monotonic-clock durations since the tracer's epoch, so
// subtraction artifacts from wall-clock adjustments cannot occur.
type SpanEvent struct {
	// Name identifies the operation ("plan-round", "forecast", ...).
	// Names are a small fixed vocabulary, never per-item strings, so
	// recording allocates nothing beyond the ring slot.
	Name string
	// TID is the trace row (ControlTID or WorkerTID0+worker).
	TID uint64
	// Start is the span's start offset from the tracer epoch.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
	// VT is an optional virtual-time stamp (the simulation clock at span
	// end); zero when the span was not tied to simulated time.
	VT time.Time
}

// Tracer is a bounded, lock-cheap span recorder. Disabled (the default)
// it costs one atomic load per Start and a nil check per End; enabled,
// a span is two monotonic clock reads plus a short critical section
// writing one ring slot. Completed spans are exported as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing.
//
// The zero *Tracer is valid and permanently disabled, so instrumented
// code never needs a nil guard.
type Tracer struct {
	enabled atomic.Bool
	epoch   time.Time

	mu       sync.Mutex
	capacity int
	buf      []SpanEvent // allocated on first record
	next     int
	count    int
	total    uint64
}

// DefaultTracer is the process-wide tracer, served by the daemon at
// /trace. It starts disabled; the daemon enables it when an
// observability listener or a -trace-out file is requested.
var DefaultTracer = NewTracer(16384)

// NewTracer returns a disabled tracer retaining at most capacity spans.
// The ring is allocated when the first span completes: span events carry
// pointers (name, virtual-time stamp), so a tracer that never records —
// the library default — adds nothing to the GC scan set.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{epoch: time.Now(), capacity: capacity}
}

// SetEnabled switches span recording on or off. Safe on a nil tracer.
func (tr *Tracer) SetEnabled(v bool) {
	if tr != nil {
		tr.enabled.Store(v)
	}
}

// Enabled reports whether spans are being recorded.
func (tr *Tracer) Enabled() bool { return tr != nil && tr.enabled.Load() }

// Span is an open interval returned by Start. The zero Span (from a nil
// or disabled tracer) is valid: End is a nil check and nothing more.
type Span struct {
	tr    *Tracer
	name  string
	tid   uint64
	start time.Duration
}

// Start opens a span on the control row.
func (tr *Tracer) Start(name string) (s Span) {
	if tr != nil && tr.enabled.Load() {
		s = tr.startSpan(name, ControlTID)
	}
	return
}

// StartTID opens a span on an explicit trace row; parallel workers use
// WorkerTID0+worker so their spans render as separate lanes.
func (tr *Tracer) StartTID(name string, tid uint64) (s Span) {
	if tr != nil && tr.enabled.Load() {
		s = tr.startSpan(name, tid)
	}
	return
}

// startSpan is the enabled half of StartTID, kept out of line (one extra
// call on the enabled path, which is dominated by the clock read anyway)
// so the disabled path — a nil check and an atomic load — inlines into
// hot loops.
//
//go:noinline
func (tr *Tracer) startSpan(name string, tid uint64) Span {
	return Span{tr: tr, name: name, tid: tid, start: time.Since(tr.epoch)}
}

// End completes the span and records it.
func (s Span) End() { s.EndVirtual(time.Time{}) }

// Active reports whether End will record this span, letting hot loops
// skip work that exists only to feed it (e.g. the virtual-time lookup
// for EndVirtual).
func (s Span) Active() bool { return s.tr != nil }

// EndVirtual completes the span and stamps it with a virtual-time
// timestamp (the simulation clock), mirroring Journal.RecordTenantAt: the
// span's duration is always wall time, but the stamp ties it back to
// workload chronology.
func (s Span) EndVirtual(vt time.Time) {
	if s.tr == nil {
		return
	}
	end := time.Since(s.tr.epoch)
	s.tr.record(SpanEvent{Name: s.name, TID: s.tid, Start: s.start, Dur: end - s.start, VT: vt})
}

func (tr *Tracer) record(ev SpanEvent) {
	tr.mu.Lock()
	if tr.buf == nil {
		tr.buf = make([]SpanEvent, tr.capacity)
	}
	tr.total++
	tr.buf[tr.next] = ev
	tr.next = (tr.next + 1) % len(tr.buf)
	if tr.count < len(tr.buf) {
		tr.count++
	}
	tr.mu.Unlock()
}

// Events returns the retained spans in completion order, oldest first.
func (tr *Tracer) Events() []SpanEvent {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]SpanEvent, 0, tr.count)
	start := tr.next - tr.count
	if start < 0 {
		start += len(tr.buf)
	}
	for i := 0; i < tr.count; i++ {
		out = append(out, tr.buf[(start+i)%len(tr.buf)])
	}
	return out
}

// Len returns how many spans are currently retained.
func (tr *Tracer) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.count
}

// Cap returns the tracer capacity.
func (tr *Tracer) Cap() int { return tr.capacity }

// Total returns how many spans were ever recorded.
func (tr *Tracer) Total() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total
}

// Dropped returns how many spans the ring has overwritten.
func (tr *Tracer) Dropped() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total - uint64(tr.count)
}

// Reset discards all retained spans and the drop accounting; tests use
// it to isolate runs against the process-wide tracer.
func (tr *Tracer) Reset() {
	tr.mu.Lock()
	tr.next, tr.count, tr.total = 0, 0, 0
	tr.mu.Unlock()
}

// chromeSpan is one complete ("ph":"X") event of the Chrome trace-event
// format; ts and dur are microseconds.
type chromeSpan struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeMeta is a metadata ("ph":"M") event naming a trace row.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args"`
}

// chromeTrace is the JSON-object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []interface{} `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders the retained spans as Chrome trace-event JSON:
// one "X" (complete) event per span sorted by start offset — so ts is
// monotone within every tid — preceded by "M" thread_name metadata for
// each trace row. The output loads directly in Perfetto.
func (tr *Tracer) WriteChrome(w io.Writer) error {
	events := tr.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })

	tids := make([]uint64, 0, 8)
	seen := map[uint64]bool{}
	for _, ev := range events {
		if !seen[ev.TID] {
			seen[ev.TID] = true
			tids = append(tids, ev.TID)
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]interface{}, 0, len(events)+len(tids))}
	for _, tid := range tids {
		name := fmt.Sprintf("worker-%d", tid-WorkerTID0)
		if tid == ControlTID {
			name = "control"
		}
		out.TraceEvents = append(out.TraceEvents, chromeMeta{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]string{"name": name},
		})
	}
	for _, ev := range events {
		span := chromeSpan{
			Name: ev.Name, Cat: "robustscale", Ph: "X",
			TS:  float64(ev.Start) / float64(time.Microsecond),
			Dur: float64(ev.Dur) / float64(time.Microsecond),
			PID: 1, TID: ev.TID,
		}
		if !ev.VT.IsZero() {
			span.Args = map[string]string{"vt": ev.VT.Format(time.RFC3339Nano)}
		}
		out.TraceEvents = append(out.TraceEvents, span)
	}
	return json.NewEncoder(w).Encode(out)
}

// WriteChromeFile writes the Chrome trace to a file (the daemon's
// -trace-out flag).
func (tr *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Handler returns an http.Handler serving the Chrome trace JSON.
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
