package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Event is one structured entry in the journal: a scaling decision, an
// injected fault, a forecast-error report — anything an operator would
// want in a postmortem timeline.
type Event struct {
	// Seq is a monotonically increasing sequence number (1-based),
	// assigned at record time; gaps never occur, so Seq exposes how many
	// events a bounded journal has dropped.
	Seq uint64 `json:"seq"`
	// Time is the event timestamp — virtual time when recorded from the
	// simulator, wall time otherwise.
	Time time.Time `json:"time"`
	// Tenant labels which tenant's control loop emitted the event; empty
	// for process-wide events, so single-tenant output stays unchanged.
	Tenant string `json:"tenant,omitempty"`
	// Kind classifies the event ("scale", "violation", "fault",
	// "forecast_error", ...).
	Kind string `json:"kind"`
	// Msg is a human-readable one-liner.
	Msg string `json:"msg,omitempty"`
	// Fields carries the event's numeric payload.
	Fields map[string]float64 `json:"fields,omitempty"`
}

// Journal is a bounded ring buffer of Events: appends are O(1), memory is
// fixed at capacity, and the oldest entries are overwritten first. It is
// safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	count int
	seq   uint64
}

// DefaultJournal is the process-wide journal, exposed by the daemon at
// /journal.
var DefaultJournal = NewJournal(1024)

// NewJournal returns a journal holding at most capacity events.
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{buf: make([]Event, capacity)}
}

// RecordTenantAt appends an event with an explicit timestamp (virtual
// time from the simulator, a parsed log time during replay, ...) and a
// tenant label, empty for a process-wide event. The fields map is copied,
// so callers may reuse theirs.
func (j *Journal) RecordTenantAt(t time.Time, tenant, kind, msg string, fields map[string]float64) {
	var copied map[string]float64
	if len(fields) > 0 {
		copied = make(map[string]float64, len(fields))
		for k, v := range fields {
			copied[k] = v
		}
	}
	j.mu.Lock()
	j.seq++
	j.buf[j.next] = Event{Seq: j.seq, Time: t, Tenant: tenant, Kind: kind, Msg: msg, Fields: copied}
	j.next = (j.next + 1) % len(j.buf)
	if j.count < len(j.buf) {
		j.count++
	}
	j.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.count)
	start := j.next - j.count
	if start < 0 {
		start += len(j.buf)
	}
	for i := 0; i < j.count; i++ {
		out = append(out, j.buf[(start+i)%len(j.buf)])
	}
	return out
}

// Len returns how many events are currently retained.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Cap returns the journal capacity.
func (j *Journal) Cap() int { return len(j.buf) }

// Total returns how many events were ever recorded.
func (j *Journal) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dropped returns how many events the ring has overwritten.
func (j *Journal) Dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq - uint64(j.count)
}

// journalExport is the JSON shape served by Handler.
type journalExport struct {
	Capacity int     `json:"capacity"`
	Total    uint64  `json:"total"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events"`
}

// EventsFiltered returns the retained events matching kind (empty
// matches all) with Seq > sinceSeq, oldest first. sinceSeq makes the
// journal a resumable cursor: postmortem tooling passes the last Seq it
// saw instead of re-paging the full ring.
func (j *Journal) EventsFiltered(kind string, sinceSeq uint64) []Event {
	return j.EventsFilteredTenant("", kind, sinceSeq)
}

// EventsFilteredTenant is EventsFiltered additionally restricted to one
// tenant's events (empty tenant matches all).
func (j *Journal) EventsFilteredTenant(tenant, kind string, sinceSeq uint64) []Event {
	events := j.Events()
	if tenant == "" && kind == "" && sinceSeq == 0 {
		return events
	}
	out := events[:0]
	for _, e := range events {
		if e.Seq > sinceSeq && (kind == "" || e.Kind == kind) && (tenant == "" || e.Tenant == tenant) {
			out = append(out, e)
		}
	}
	return out
}

// Handler returns an http.Handler serving the journal as JSON. Query
// parameters filter the events: ?kind= matches the event kind,
// ?tenant= matches the tenant label, and ?since_seq= returns only
// events with a larger sequence number.
func (j *Journal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		var sinceSeq uint64
		if raw := q.Get("since_seq"); raw != "" {
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				http.Error(w, "bad since_seq: "+err.Error(), http.StatusBadRequest)
				return
			}
			sinceSeq = v
		}
		export := journalExport{
			Capacity: j.Cap(),
			Total:    j.Total(),
			Dropped:  j.Dropped(),
			Events:   j.EventsFilteredTenant(q.Get("tenant"), q.Get("kind"), sinceSeq),
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(export); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
