package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"robustscale/internal/fleet"
	"robustscale/internal/obs"
)

// report runs the command in-process, which must succeed, and decodes
// its summary: stdout's, or the -out file's when out is not empty.
func report(t *testing.T, args, out string) *fleet.Report {
	t.Helper()
	if out != "" {
		args += " -out " + out
	}
	code, stdout, stderr := fleetsim(t, args)
	if code != 0 {
		t.Fatalf("%s: exit %d\n%s", args, code, stderr)
	}
	raw := []byte(stdout)
	if out != "" {
		var err error
		if raw, err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}
	var rep fleet.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("%s: summary is not JSON: %v\n%s", args, err, raw)
	}
	return &rep
}

// tenantRow is the deterministic projection of a tenant's record: what
// it decided, without wall-clock or derived figures.
type tenantRow struct {
	ID, AllocHash            string
	Steps, Violations, Final int
	CostNodeSteps            int64
}

func tenantRows(rep *fleet.Report) []tenantRow {
	rows := make([]tenantRow, len(rep.PerTenant))
	for i, tr := range rep.PerTenant {
		rows[i] = tenantRow{tr.ID, tr.AllocHash, tr.Steps, tr.Violations, tr.FinalNodes, tr.CostNodeSteps}
	}
	return rows
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestStateDirKillRestart: a 200-tenant fleet stopped at a round
// boundary leaves one segment per round and one series file; restarted
// on that directory, every tenant warm-starts, reads its series from the
// file without rewriting it, and the run ends on every decision of an
// uninterrupted one.
func TestStateDirKillRestart(t *testing.T) {
	const n = 200
	full := report(t, "-tenants "+strconv.Itoa(n), "")
	if full.Tenants != n || len(full.PerTenant) != n || full.Rounds == 0 || full.Steps == 0 || full.CostNodeSteps == 0 {
		t.Fatalf("summary of %d tenants: %d tenants, %d records, %d rounds, %d steps, cost %d",
			n, full.Tenants, len(full.PerTenant), full.Rounds, full.Steps, full.CostNodeSteps)
	}
	if full.ColdStarts != n || full.WarmStarts != 0 {
		t.Errorf("a run without state: %d cold and %d warm starts, want %d and 0", full.ColdStarts, full.WarmStarts, n)
	}
	if want := uint64(n * full.Rounds); full.DecisionsTotal != want {
		t.Errorf("decisions_total = %d, want one per tenant-round: %d", full.DecisionsTotal, want)
	}

	dir := t.TempDir()
	p1 := report(t, "-tenants "+strconv.Itoa(n)+" -max-rounds 3 -state-dir "+dir, "")
	if p1.Rounds != 3 || p1.SeriesRestored != 0 {
		t.Errorf("phase 1: %d rounds, %d series restored; want 3 and 0", p1.Rounds, p1.SeriesRestored)
	}
	want := []string{"segment-00000000.seg", "segment-00000001.seg", "segment-00000002.seg", "series-00000000.ser"}
	if got := dirNames(t, dir); !slices.Equal(got, want) {
		t.Fatalf("state dir after 3 rounds holds %q, want %q", got, want)
	}
	series, err := os.ReadFile(filepath.Join(dir, want[3]))
	if err != nil {
		t.Fatal(err)
	}

	p2 := report(t, "-tenants "+strconv.Itoa(n)+" -state-dir "+dir, "")
	if p2.WarmStarts != n || p2.ColdStarts != 0 || p2.SeriesRestored != n {
		t.Errorf("restart: %d warm, %d cold starts, %d series restored; want %d, 0, %d",
			p2.WarmStarts, p2.ColdStarts, p2.SeriesRestored, n, n)
	}
	var files []string
	for _, name := range dirNames(t, dir) {
		if strings.HasPrefix(name, "series-") {
			files = append(files, name)
		}
	}
	again, err := os.ReadFile(filepath.Join(dir, want[3]))
	if len(files) != 1 || err != nil || !bytes.Equal(again, series) {
		t.Errorf("restart left series files %q (read err %v, unchanged %v), want %s untouched", files, err, bytes.Equal(again, series), want[3])
	}
	if p2.FleetHash != full.FleetHash {
		t.Errorf("restarted fleet hash %s, uninterrupted %s", p2.FleetHash, full.FleetHash)
	}
	if !slices.Equal(tenantRows(p2), tenantRows(full)) {
		t.Error("restarted tenant records differ from the uninterrupted run's")
	}
}

// TestWorkersInvisibleAtScale: a 1 000-tenant fleet hashes the same on
// one worker and on four.
func TestWorkersInvisibleAtScale(t *testing.T) {
	one := report(t, "-tenants 1000 -per-tenant=false -workers 1", "")
	four := report(t, "-tenants 1000 -per-tenant=false -workers 4", "")
	if one.Tenants != 1000 || one.FleetHash != four.FleetHash {
		t.Errorf("%d tenants: -workers 1 hash %s, -workers 4 hash %s", one.Tenants, one.FleetHash, four.FleetHash)
	}
}

// TestBlastRadiusAgainstBaseline measures faults against a fault-free
// -baseline summary at 64 tenants. A zone outage striped one zone per
// tenant reaches at most 1 % of its bystanders, and tenant-local chaos
// enrolled on one victim leaves every other tenant bit-identical.
func TestBlastRadiusAgainstBaseline(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	base := report(t, "-tenants 64", basePath)

	zone := report(t, "-tenants 64 -zones 64 -chaos zone-outage -baseline "+basePath, filepath.Join(dir, "zone.json"))
	if br := zone.BlastRadius; br == nil || br.Bystanders == 0 || br.Radius > 0.01 {
		t.Errorf("zone outage: blast radius %+v, want bystanders and a radius <= 1%%", br)
	}
	if c := zone.Chaos; c == nil || c.Preset != "zone-outage" || c.FleetEvents == 0 {
		t.Errorf("zone outage: chaos section %+v, want the preset and fleet events", c)
	}

	const victim = "t00002"
	hit := report(t, "-tenants 64 -chaos all -chaos-tenants "+victim+" -baseline "+basePath, filepath.Join(dir, "victim.json"))
	if br := hit.BlastRadius; br == nil || br.Affected != 0 || br.Faulted != 1 {
		t.Errorf("single victim: blast radius %+v, want 0 affected and 1 faulted", br)
	}
	rows, baseRows := tenantRows(hit), tenantRows(base)
	if len(rows) != len(baseRows) {
		t.Fatalf("%d tenant records, baseline %d", len(rows), len(baseRows))
	}
	for i, row := range rows {
		if row.ID != victim && row.AllocHash != baseRows[i].AllocHash {
			t.Errorf("bystander %s drifted: alloc hash %s, baseline %s", row.ID, row.AllocHash, baseRows[i].AllocHash)
		}
	}
}

// labelCapChild, as the test binary's first argument after the flags,
// makes TestLabelLimitBoundsExposition the child that writes the dump.
const labelCapChild = "label-cap-child"

// TestLabelLimitBoundsExposition: 1 000 tenants at -label-limit 64 keep
// 64 tenant series and fold the rest into "other", count the overflow,
// and dump fewer lines than there are tenants. The registry is
// process-wide and keeps every series an earlier test labelled, so the
// run is a fresh process: the test binary re-executed on this test alone.
func TestLabelLimitBoundsExposition(t *testing.T) {
	if args := flag.Args(); len(args) == 2 && args[0] == labelCapChild {
		defer obs.Default.SetLabelLimit(obs.DefaultLabelLimit)
		if code, _, stderr := fleetsim(t, "-tenants 1000 -per-tenant=false -label-limit 64 -metrics "+args[1]); code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr)
		}
		return
	}
	dump := filepath.Join(t.TempDir(), "metrics.txt")
	child := exec.Command(os.Args[0], "-test.run=^TestLabelLimitBoundsExposition$", "--", labelCapChild, dump)
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("child run: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	series := regexp.MustCompile(`(?m)^robustscale_fleet_tenant_rounds_total\{`).FindAllString(text, -1)
	if len(series) != 65 || !strings.Contains(text, `robustscale_fleet_tenant_rounds_total{tenant="other"}`) {
		t.Errorf("%d tenant-rounds series, want 64 tenants and other", len(series))
	}
	overflow := 0.0
	for _, m := range regexp.MustCompile(`(?m)^robustscale_metric_label_overflow_total\{.*\} (\S+)$`).FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		overflow += v
	}
	if overflow == 0 {
		t.Error("the label overflow counter did not move")
	}
	if lines := strings.Count(text, "\n"); lines >= 1000 {
		t.Errorf("the dump of 1 000 tenants is %d lines, want it bounded below 1 000", lines)
	}
}

// healthAddr is the log line that names the address -listen bound.
var healthAddr = regexp.MustCompile(`health surface on http://(\S+) `)

// servedSink is a fleetsim's stderr: it learns the listener's address
// from the server goroutine's line and signals the line the command
// writes once its run is over and it only serves.
type servedSink struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	base      string
	addrKnown chan struct{}
	served    chan struct{}
}

func (s *servedSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	if m := healthAddr.FindSubmatch(p); m != nil {
		s.base = "http://" + string(m[1])
		close(s.addrKnown)
	} else if bytes.Contains(p, []byte("serving health surface until interrupted")) {
		close(s.served)
	}
	return len(p), nil
}

func (s *servedSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// TestHealthSurfaceAfterRun serves -listen on a chaos fleet behind a
// binding pool at four workers, the path the race detector watches, and
// probes every route once the run is over.
func TestHealthSurfaceAfterRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs.DefaultDecisions.Reset()
	sink := &servedSink{addrKnown: make(chan struct{}), served: make(chan struct{})}
	args := strings.Fields("-tenants 16 -pool 32 -chaos fleet -workers 4 -per-tenant=false -listen 127.0.0.1:0")
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, io.Discard, sink) }()
	for _, ch := range []chan struct{}{sink.served, sink.addrKnown} {
		select {
		case <-ch:
		case err := <-done:
			t.Fatalf("fleetsim ended before serving: %v\n%s", err, sink.String())
		}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range []struct{ route, holds string }{
		{"/healthz", ""},
		{"/readyz", ""},
		{"/slo", `"observations_total":`},
		{"/alerts", `"history":`},
		{"/metrics", `robustscale_fleet_tenant_rounds_total{tenant="t00015"}`},
		{"/journal", `"events":`},
		{"/decisions", `"tenant":"t00015"`},
	} {
		resp, err := client.Get(sink.base + tc.route)
		if err != nil {
			t.Errorf("GET %s: %v", tc.route, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), tc.holds) {
			t.Errorf("GET %s: status %d (read err %v), want 200 holding %q:\n%.500s", tc.route, resp.StatusCode, err, tc.holds, body)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("fleetsim: %v", err)
	}
}
