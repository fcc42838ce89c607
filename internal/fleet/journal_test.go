package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

// journalRun is one fleet run recorded for the journal tests: every
// event, in a journal large enough to drop none; the resilience gauges
// after every round, the guard-mode tenant counts then the apply-breaker
// ones; the tenant-rounds and steps in which a scale action exhausted
// its attempts; and the apply breakers' trips.
type journalRun struct {
	events       []obs.Event
	gauges       [][7]float64
	failedRounds int
	failedSteps  int
	applyTrips   int64
}

func recordRun(t *testing.T, cfg Config) journalRun {
	t.Helper()
	saved := obs.DefaultJournal
	defer func() { obs.DefaultJournal = saved }()
	obs.DefaultJournal = obs.NewJournal(1 << 16)
	modes := obs.Default.GaugeVec("robustscale_guard_mode_tenants", "", "mode")
	breakers := obs.Default.GaugeVec("robustscale_apply_breaker_tenants", "", "state")

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var run journalRun
	// Each tenant's hook writes only its own slots: the apply stage runs
	// tenants in parallel.
	failed := make([]map[int]int, len(c.Tenants()))
	for i, tn := range c.Tenants() {
		failed[i] = map[int]int{}
		tn.OnStep = func(st Step) {
			if st.Err != nil && !errors.Is(st.Err, scaler.ErrBreakerOpen) {
				failed[i][(st.Index-tn.TrainEnd)/tn.Horizon]++
			}
		}
	}
	// One round per Run, so the gauges can be read between rounds and held
	// to the tenants' own states: each tenant counted once per family.
	for c.cfg.MaxRounds = 1; ; c.cfg.MaxRounds++ {
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if c.rounds < c.cfg.MaxRounds {
			break
		}
		var gauges, own [7]float64
		for m := range 4 {
			gauges[m] = modes.With(scaler.DegradationMode(m).String()).Value()
		}
		for s := range 3 {
			gauges[4+s] = breakers.With(scaler.BreakerState(s).String()).Value()
		}
		for _, tn := range c.Tenants() {
			own[tn.mode]++
			own[4+int(tn.breaker)]++
		}
		if gauges != own {
			t.Fatalf("round %d: gauges (modes, breaker states) %v, the tenants' own %v", c.rounds, gauges, own)
		}
		run.gauges = append(run.gauges, gauges)
	}
	if d := obs.DefaultJournal.Dropped(); d > 0 {
		t.Fatalf("the journal dropped %d events", d)
	}
	run.events = journalEvents("", "", 0)
	for _, rounds := range failed {
		for _, steps := range rounds {
			run.failedRounds++
			run.failedSteps += steps
		}
	}
	for _, tn := range c.Tenants() {
		run.applyTrips += tn.Breaker.Trips()
	}
	return run
}

// TestJournalAndGaugesIndependentOfWorkers: a 64-tenant, six-day fleet
// under forecaster, telemetry, apply and all-class chaos (the last one
// durable) records the same journal — sequence numbers, times, tenants,
// kinds, messages and fields — and the same resilience gauges at every
// round at one worker and, three times over, at two: the guard's and the
// apply path's events are the tenant's to record at the stage barriers,
// in tenant order, each with its tenant id, and the gauges are set once
// per round to how many tenants are on each guard mode and in each
// apply-breaker state. Under forecaster chaos some round holds normal and
// degraded tenants side by side, which one fleet-wide worst state could
// not tell apart from a fully degraded fleet.
func TestJournalAndGaugesIndependentOfWorkers(t *testing.T) {
	for _, preset := range []string{"forecast", "telemetry", "apply", "all"} {
		cfg := DefaultConfig(64)
		cfg.Days, cfg.Chaos = 6, preset
		durable := preset == "all"
		var want journalRun
		for i, workers := range []int{1, 2, 2, 2} {
			cfg.Workers = workers
			if durable {
				cfg.StateDir = t.TempDir()
			}
			got := recordRun(t, cfg)
			if i == 0 {
				want = got
				kinds, anonymous := map[string]int{}, 0
				for _, e := range got.events {
					kinds[e.Kind]++
					if k := e.Kind; e.Tenant == "" && (k == "degraded" || k == "recovered" || k == "apply-failed") {
						anonymous++
					}
				}
				if anonymous > 0 {
					t.Errorf("%s: %d guard and apply-failed events carry no tenant id", preset, anonymous)
				}
				if premise := map[string]string{"forecast": "degraded", "telemetry": "degraded", "apply": "apply-failed", "all": "apply-failed"}[preset]; kinds[premise] == 0 {
					t.Fatalf("%s: premise: no %s events (journalled %v)", preset, premise, kinds)
				}
				if preset == "forecast" && !slices.ContainsFunc(got.gauges, func(g [7]float64) bool { return g[0] > 0 && g[0] < 64 }) {
					t.Errorf("%s: no round with both normal and degraded tenants: %v", preset, got.gauges)
				}
				continue
			}
			name := fmt.Sprintf("%s, run %d at %d workers", preset, i, workers)
			if len(got.events) != len(want.events) {
				t.Fatalf("%s: %d events, %d at one worker", name, len(got.events), len(want.events))
			}
			for j := range got.events {
				if !reflect.DeepEqual(got.events[j], want.events[j]) {
					t.Fatalf("%s: event %d is %+v, %+v at one worker", name, j, got.events[j], want.events[j])
				}
			}
			if !reflect.DeepEqual(got.gauges, want.gauges) {
				t.Errorf("%s: gauges (modes, breaker states) by round %v, %v at one worker", name, got.gauges, want.gauges)
			}
		}
	}
}

// TestApplyFailedOncePerTenantRound: under apply chaos the journal holds
// one apply-failed event per tenant-round in which a scale action
// exhausted its attempts, not one per failed step, and the events'
// failed_steps add up to the failed steps. The run's apply breakers open.
func TestApplyFailedOncePerTenantRound(t *testing.T) {
	cfg := DefaultConfig(64)
	cfg.Days, cfg.Chaos, cfg.Workers = 6, "apply", 2
	run := recordRun(t, cfg)
	events, steps := 0, 0
	for _, e := range run.events {
		if e.Kind == "apply-failed" {
			events++
			steps += int(e.Fields["failed_steps"])
			if e.Fields["attempts"] != 1 || e.Fields["target"] < 0 {
				t.Errorf("apply-failed fields %v", e.Fields)
			}
		}
	}
	if run.failedRounds == 0 || run.failedSteps <= run.failedRounds {
		t.Fatalf("premise: %d failed steps over %d tenant-rounds, want some rounds with several", run.failedSteps, run.failedRounds)
	}
	// Apply breakers open at two workers, so the race detector sees each
	// driven only by the loop that owns it.
	if run.applyTrips == 0 {
		t.Fatal("premise: no apply breaker opened")
	}
	if events != run.failedRounds || steps != run.failedSteps {
		t.Errorf("%d apply-failed events reporting %d failed steps, want %d and %d", events, steps, run.failedRounds, run.failedSteps)
	}
}

// TestReactiveFleetCountsPlans: plans_total counts every round the
// tenant's own strategy returned, a reactive one's too: a reactive-max
// fleet adds tenants × rounds.
func TestReactiveFleetCountsPlans(t *testing.T) {
	const tenants, rounds = 6, 4
	cfg := DefaultConfig(tenants)
	cfg.Strategy, cfg.MaxRounds = StrategyReactiveMax, rounds
	planned := obs.Default.CounterVec("robustscale_scaler_plans_total", "", "strategy").With("reactive-max")
	before := planned.Value()
	runFleet(t, cfg)
	if got := planned.Value() - before; got != tenants*rounds {
		t.Errorf("a reactive-max fleet counted %v plans, want %d", got, tenants*rounds)
	}
}

// lagging forecasts every step at 80% of the last observed value, so it
// under-predicts the load a round realizes.
type lagging struct{}

func (lagging) Name() string                 { return "lagging" }
func (lagging) Fit(*timeseries.Series) error { return nil }
func (lagging) Predict(history *timeseries.Series, h int) ([]float64, error) {
	out := make([]float64, h)
	for i := range out {
		out[i] = 0.8 * history.At(history.Len()-1)
	}
	return out, nil
}

// TestPaddingLearnsUnderTenant: the padding baseline driven by a lone
// tenant learns a positive pad from the load its rounds realized, with
// nothing but its history to learn from.
func TestPaddingLearnsUnderTenant(t *testing.T) {
	tc := trace.AlibabaStyle(5)
	tc.Days, tc.Units = 4, 8
	tr, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	series, err := tr.Series(trace.CPU)
	if err != nil {
		t.Fatal(err)
	}
	const trainEnd, horizon, theta = 2 * 144, 12, 10.0
	padded := forecast.NewPadded(lagging{})
	tn := &Tenant{
		ID: "padded", Series: series, TrainEnd: trainEnd, Horizon: horizon,
		Fingerprint: persist.Fingerprint{Tenant: "padded", Theta: theta, Horizon: horizon},
		Plant:       &cluster.AllocPlant{Theta: theta},
		Build: func(*Tenant, []byte, float64) (scaler.Strategy, forecast.Snapshotter, float64, error) {
			return &scaler.Predictive{Forecaster: padded, Theta: theta}, nil, 0, nil
		},
	}
	if _, err := tn.Start(); err != nil {
		t.Fatal(err)
	}
	for rounds := 0; tn.Active() && rounds < 12; rounds++ {
		if err := tn.Plan(); err != nil {
			t.Fatal(err)
		}
		if err := tn.Apply(); err != nil {
			t.Fatal(err)
		}
	}
	if pad := padded.Pad(); !(pad > 0) {
		t.Errorf("pad = %v after 12 rounds, want positive", pad)
	}
}

// journalEvents is obs.DefaultJournal's events of one tenant and kind
// (empty matches all) with Seq > sinceSeq, as /journal serves them.
func journalEvents(tenant, kind string, sinceSeq uint64) []obs.Event {
	_, events := obs.DefaultJournal.Events(tenant, kind, sinceSeq)
	return events
}
