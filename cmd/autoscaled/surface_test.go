package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// listenAddr is the log line that names the address -listen bound.
var listenAddr = regexp.MustCompile(`observability endpoint on http://(\S+) `)

// served is the line a -listen daemon logs once its replay is over; it
// then serves until its context is cancelled.
const served = "serving observability surface"

// probeSink is a daemon's stderr. It learns the listener's address from
// the server goroutine's line and signals the served line. beforeReady,
// when set, runs inside the write of the daemon's training line, so the
// daemon is blocked there until the probe returns and the probe sees its
// state at that line, not a race against it. A training line written
// before the address line defers the probe to the strategy line, the one
// line the daemon writes between training and readiness. The probe runs
// without the sink's lock held.
type probeSink struct {
	mu          sync.Mutex
	buf         bytes.Buffer
	base        string        // "http://host:port" once the address line arrived
	addrKnown   chan struct{} // closed at the address line
	served      chan struct{} // closed at the served line
	beforeReady func(base string)
}

func newProbeSink(beforeReady func(base string)) *probeSink {
	return &probeSink{addrKnown: make(chan struct{}), served: make(chan struct{}), beforeReady: beforeReady}
}

func (s *probeSink) Write(p []byte) (int, error) {
	line := string(p)
	var probe func(string)
	s.mu.Lock()
	s.buf.Write(p)
	switch m := listenAddr.FindStringSubmatch(line); {
	case m != nil:
		s.base = "http://" + m[1]
		close(s.addrKnown)
	case strings.Contains(line, served):
		close(s.served)
	case s.beforeReady != nil && s.base != "" &&
		(strings.Contains(line, "training tft") || strings.Contains(line, " strategy=")):
		probe, s.beforeReady = s.beforeReady, nil
	}
	base := s.base
	s.mu.Unlock()
	if probe != nil {
		probe(base)
	}
	return len(p), nil
}

func (s *probeSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// serveDaemon runs the daemon in-process on an address of the kernel's
// choosing, runs atServed once the replay is over and the address known,
// then stops the daemon. beforeReady, if not nil, must have run.
func serveDaemon(t *testing.T, args string, beforeReady, atServed func(base string)) (string, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := newProbeSink(beforeReady)
	var stdout bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, strings.Fields(args+" -listen 127.0.0.1:0"), &stdout, sink) }()
	for _, ch := range []chan struct{}{sink.served, sink.addrKnown} {
		select {
		case <-ch:
		case err := <-done:
			t.Fatalf("autoscaled %s ended before serving: %v\n%s", args, err, sink.String())
		}
	}
	atServed(sink.base)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("autoscaled %s: %v\n%s", args, err, sink.String())
	}
	if beforeReady != nil && sink.beforeReady != nil {
		t.Fatalf("autoscaled %s: the address line came after readiness; nothing probed before it:\n%s", args, sink.String())
	}
	return stdout.String(), sink.String()
}

var probeClient = &http.Client{Timeout: 10 * time.Second}

// get fetches a route and returns its status and body.
func get(t *testing.T, base, route string) (int, []byte) {
	t.Helper()
	resp, err := probeClient.Get(base + route)
	if err != nil {
		t.Errorf("GET %s: %v", route, err)
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("GET %s: %v", route, err)
	}
	return resp.StatusCode, body
}

// getJSON fetches a route that must answer 200 and decodes its body.
func getJSON(t *testing.T, base, route string, v any) {
	t.Helper()
	code, body := get(t, base, route)
	if code != http.StatusOK {
		t.Errorf("GET %s: status %d, want 200: %s", route, code, body)
		return
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Errorf("GET %s: %v: %s", route, err, body)
	}
}

type journalPage struct {
	Events []struct {
		Kind string `json:"kind"`
	} `json:"events"`
}

type decisionsPage struct {
	Decisions []map[string]any `json:"decisions"`
}

// checkTrace holds a Chrome trace to having complete ("X") spans, each
// with a time, a process and a thread.
func checkTrace(t *testing.T, what string, raw []byte) {
	t.Helper()
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Errorf("%s is not trace-event JSON: %v", what, err)
		return
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		spans++
		for _, key := range []string{"ts", "pid", "tid"} {
			if ev[key] == nil {
				t.Errorf("%s: span %v has no %s", what, ev, key)
			}
		}
	}
	if spans == 0 {
		t.Errorf("%s holds no complete spans among %d events", what, len(tr.TraceEvents))
	}
}

// TestObservabilitySurface drives every route of a checkpointing daemon
// under the all-class fault preset. /healthz answers and /readyz is 503
// while it trains; after the replay /readyz is 200 and every route
// answers with live state; the Chrome trace file and -explain hold what
// the routes serve. A warm restart on the same -state-dir is ready
// without training and serves the restored SLO window.
func TestObservabilitySurface(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	args := "-days 1 -epochs 1 -horizon 12 -chaos all -state-dir " + filepath.Join(dir, "state")

	whileTraining := func(base string) {
		if code, _ := get(t, base, "/healthz"); code != http.StatusOK {
			t.Errorf("/healthz while training: %d, want 200", code)
		}
		if code, _ := get(t, base, "/readyz"); code != http.StatusServiceUnavailable {
			t.Errorf("/readyz while training: %d, want 503", code)
		}
	}
	stdout, stderr := serveDaemon(t, args+" -trace-out "+traceFile+" -explain latest", whileTraining, func(base string) {
		if code, _ := get(t, base, "/readyz"); code != http.StatusOK {
			t.Errorf("/readyz after the replay: %d, want 200", code)
		}
		for _, route := range []string{"/status", "/debug/pprof/"} {
			if code, body := get(t, base, route); code != http.StatusOK {
				t.Errorf("GET %s: status %d: %s", route, code, body)
			}
		}
		if _, body := get(t, base, "/metrics"); !bytes.Contains(body, []byte("robustscale_stage_duration_seconds_bucket")) {
			t.Errorf("/metrics lacks the stage histogram:\n%s", body)
		}
		code, body := get(t, base, "/trace")
		if code != http.StatusOK {
			t.Errorf("GET /trace: status %d", code)
		}
		checkTrace(t, "/trace", body)

		var all decisionsPage
		getJSON(t, base, "/decisions", &all)
		if len(all.Decisions) == 0 {
			t.Error("/decisions holds no records")
			return
		}
		first := all.Decisions[0]
		for _, key := range []string{"strategy", "prev_nodes", "delta"} {
			if _, ok := first[key]; !ok {
				t.Errorf("decision %v has no %s", first, key)
			}
		}
		if nodes, _ := first["nodes"].([]any); len(nodes) == 0 {
			t.Errorf("decision %v has no nodes", first)
		}
		strategy, _ := first["strategy"].(string)
		var mine, none decisionsPage
		getJSON(t, base, "/decisions?strategy="+url.QueryEscape(strategy)+"&from=0", &mine)
		getJSON(t, base, "/decisions?strategy=bogus&from=0", &none)
		if len(mine.Decisions) != len(all.Decisions) || len(none.Decisions) != 0 {
			t.Errorf("/decisions filters: %d records of %q and %d of bogus, want %d and 0",
				len(mine.Decisions), strategy, len(none.Decisions), len(all.Decisions))
		}

		var scale, alerts journalPage
		getJSON(t, base, "/journal?kind=scale&since_seq=0", &scale)
		if len(scale.Events) == 0 {
			t.Error("/journal?kind=scale holds no events")
		}
		for _, ev := range scale.Events {
			if ev.Kind != "scale" {
				t.Errorf("/journal?kind=scale served a %q event", ev.Kind)
			}
		}
		getJSON(t, base, "/journal?kind=alert", &alerts)
		if len(alerts.Events) == 0 {
			t.Error("/journal?kind=alert holds no events under -chaos all")
		}

		var slo struct {
			Observations uint64 `json:"observations_total"`
			Transitions  uint64 `json:"alert_transitions"`
		}
		getJSON(t, base, "/slo", &slo)
		if slo.Observations == 0 || slo.Transitions == 0 {
			t.Errorf("/slo: %d observations, %d alert transitions; want both > 0", slo.Observations, slo.Transitions)
		}
		var state map[string]json.RawMessage
		getJSON(t, base, "/alerts", &state)
		var history []any
		_ = json.Unmarshal(state["history"], &history)
		if _, ok := state["active"]; !ok || len(history) == 0 {
			t.Errorf("/alerts has active %v and %d history entries, want the key and > 0", ok, len(history))
		}
	})
	if !strings.Contains(stderr, "training tft") {
		t.Errorf("the cold run did not train:\n%s", stderr)
	}
	if !regexp.MustCompile(`(?m)^step \d+ \[\S+\] `).MatchString(stdout) {
		t.Errorf("-explain latest printed no decision:\n%s", stdout)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, "-trace-out", raw)

	_, stderr = serveDaemon(t, args, nil, func(base string) {
		if code, _ := get(t, base, "/readyz"); code != http.StatusOK {
			t.Errorf("/readyz after a warm restart: %d, want 200", code)
		}
		var slo struct {
			Observations uint64 `json:"observations_total"`
		}
		getJSON(t, base, "/slo", &slo)
		if slo.Observations == 0 {
			t.Error("/slo after a warm restart observed nothing: the SLO window was not restored")
		}
	})
	assertWarm(t, "the restart", stderr)
}

// TestListenClashFailsFast: a daemon whose -listen address is taken
// refuses to start, before any training.
func TestListenClashFailsFast(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	var stdout, stderr bytes.Buffer
	err = run(context.Background(), strings.Fields("-days 1 -epochs 1 -listen "+held.Addr().String()), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "cannot serve observability endpoint") {
		t.Errorf("-listen on a held address: error %v, want the endpoint refused", err)
	}
	if code := exitCode(err, io.Discard); code != 1 {
		t.Errorf("-listen on a held address: exit status %d, want 1", code)
	}
	if strings.Contains(stderr.String(), "training") || stdout.Len() > 0 {
		t.Errorf("-listen on a held address ran before refusing:\n%s%s", stdout.String(), stderr.String())
	}
}
