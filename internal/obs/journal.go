package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
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

// Journal is a bounded ring of Events: appends are O(1), memory is
// fixed at capacity, and the oldest entries are overwritten first. It is
// safe for concurrent use.
type Journal struct {
	ring[Event]
}

// DefaultJournal is the process-wide journal, exposed by the daemon at
// /journal.
var DefaultJournal = NewJournal(1024)

// NewJournal returns a journal holding at most capacity events. The ring
// is allocated on first record, as the decision store's and tracer's are.
func NewJournal(capacity int) *Journal {
	return &Journal{ring: newRing[Event](capacity)}
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
	slot := j.push() // seq counts the event only once push returns
	*slot = Event{Seq: j.seq, Time: t, Tenant: tenant, Kind: kind, Msg: msg, Fields: copied}
	j.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event { return j.EventsFilteredTenant("", "", 0) }

// EventsFilteredTenant returns the retained events of one tenant and
// kind (empty matches all) with Seq > sinceSeq, oldest first. sinceSeq
// makes the journal a resumable cursor: postmortem tooling passes the
// last Seq it saw instead of re-paging the full ring.
func (j *Journal) EventsFilteredTenant(tenant, kind string, sinceSeq uint64) []Event {
	_, events := j.snapshot(eventFilter(tenant, kind, sinceSeq), nil)
	return events
}

// eventFilter returns the predicate EventsFilteredTenant applies, nil
// when it keeps every event.
func eventFilter(tenant, kind string, sinceSeq uint64) func(*Event) bool {
	if tenant == "" && kind == "" && sinceSeq == 0 {
		return nil
	}
	return func(e *Event) bool {
		return e.Seq > sinceSeq && (kind == "" || e.Kind == kind) && (tenant == "" || e.Tenant == tenant)
	}
}

// Handler returns an http.Handler serving the journal as JSON. Query
// parameters filter the events: ?kind= matches the event kind,
// ?tenant= matches the tenant label, and ?since_seq= returns only
// events with a larger sequence number.
func (j *Journal) Handler() http.Handler {
	return getOnly("application/json", func(w io.Writer, q url.Values) error {
		var sinceSeq uint64
		if raw := q.Get("since_seq"); raw != "" {
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				return badQuery{fmt.Errorf("bad since_seq: %w", err)}
			}
			sinceSeq = v
		}
		stats, events := j.snapshot(eventFilter(q.Get("tenant"), q.Get("kind"), sinceSeq), nil)
		return json.NewEncoder(w).Encode(struct {
			ringStats
			Events []Event `json:"events"`
		}{stats, events})
	})
}
