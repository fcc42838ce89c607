package fleet

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

// crashRun replays a hand-assembled robust-on-TFT tenant to completion,
// checkpointing every `every` rounds and "crashing" once at each listed
// series step: the lifetime applies the round holding that step, then
// the Tenant is dropped before its checkpoint and a fresh one Starts on
// the same state directory. Allocations are recorded per step and
// overwritten when a round is re-planned, so the slice is what a
// continuously observed fleet would have seen.
type crashRun struct {
	allocs     []int
	totals     Totals
	hash       uint64
	warm, cold int   // lifetimes by how they started
	fits       int   // Build calls handed no model, which had to train
	resumes    []int // Origin() right after each restart
}

func runCrashing(t *testing.T, dir string, every int, crashes []int) crashRun {
	t.Helper()
	const (
		trainEnd = 360
		horizon  = 6
		theta    = 2.0
	)
	values := make([]float64, 400)
	for i := range values {
		phase := 2 * math.Pi * float64(i) / 48
		values[i] = 50 + 12*math.Sin(phase) + 3*math.Sin(7*phase)
	}
	series := timeseries.New("crash-test", time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute, values)

	run := crashRun{allocs: make([]int, series.Len()-trainEnd)}
	crashed := make(map[int]bool)
	for {
		tn := &Tenant{
			ID:     "crash-test",
			Series: series, TrainEnd: trainEnd, Horizon: horizon,
			Fingerprint:    persist.Fingerprint{Strategy: "robust", Tenant: "crash-test", Theta: theta, Horizon: horizon, Tau: 0.9},
			ForecasterKind: "tft",
			GuardConfig:    &scaler.GuardConfig{Theta: theta, Tau: 0.9},
			Breaker:        &scaler.Breaker{},
			Plant:          &cluster.AllocPlant{Theta: theta},
			StateDir:       dir,
			OnStep:         func(st Step) { run.allocs[st.Index-trainEnd] = st.Nodes },
		}
		tn.Build = func(model []byte, _ float64) (scaler.Strategy, forecast.Snapshotter, float64, error) {
			m := forecast.NewTFT(forecast.TFTConfig{
				Context: 24, Hidden: 8, Epochs: 2, Seed: 7, MaxWindows: 32,
				Levels: []float64{0.5, 0.9}, TrainHorizon: horizon,
			})
			if model != nil {
				if err := m.Load(bytes.NewReader(model)); err != nil {
					return nil, nil, 0, err
				}
			} else {
				run.fits++
				if err := m.Fit(series.Slice(0, trainEnd)); err != nil {
					return nil, nil, 0, err
				}
			}
			return &scaler.Robust{Forecaster: tn.Faulty(m), Tau: 0.9, Theta: theta}, m, 0, nil
		}
		recovered, err := tn.Start()
		if err != nil {
			t.Fatal(err)
		}
		if recovered != nil {
			run.warm++
		} else {
			run.cold++
		}
		if run.warm+run.cold > 1 {
			run.resumes = append(run.resumes, tn.Origin())
		}

		died := false
		for tn.Active() && !died {
			origin := tn.Origin()
			if err := tn.Plan(); err != nil {
				t.Fatal(err)
			}
			if err := tn.Apply(); err != nil {
				t.Fatal(err)
			}
			for _, step := range crashes {
				if step >= origin && step < origin+horizon && !crashed[step] {
					crashed[step], died = true, true
				}
			}
			if !died && tn.Rounds()%every == 0 {
				if err := tn.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !died {
			run.totals, run.hash = tn.Totals(), tn.allocHash
			return run
		}
	}
}

// TestTenantRestartAfterCrash is the durability contract on the one control
// loop: a tenant crashed mid-run and restarted from its checkpoint
// directory ends with the allocations, totals and rolling hash of an
// uninterrupted run, and only cold starts train.
func TestTenantRestartAfterCrash(t *testing.T) {
	base := runCrashing(t, t.TempDir(), 1, nil)
	if base.cold != 1 || base.warm != 0 || base.fits != 1 {
		t.Fatalf("uninterrupted lifecycle: %d cold / %d warm starts, %d fits", base.cold, base.warm, base.fits)
	}
	if base.totals.Steps != 36 || slices.Contains(base.allocs[:base.totals.Steps], 0) {
		t.Fatalf("uninterrupted run covered %d steps: %v", base.totals.Steps, base.allocs)
	}

	cases := []struct {
		name       string
		every      int
		crashes    []int
		warm, cold int
		resumes    []int
	}{
		// Every crash lands after a checkpoint exists: three warm
		// lifetimes, each resuming at the boundary of the round it died in.
		{"several-crashes-mid-run", 1, []int{368, 385, 391}, 3, 1, []int{366, 384, 390}},
		// Dying inside round one leaves nothing on disk: a second cold
		// start re-derives everything from the seed.
		{"crash-before-first-checkpoint", 1, []int{362}, 0, 2, []int{360}},
		// A sparse cadence loses the rounds since the last checkpoint:
		// crashes in rounds 4 and 6 both fall back to the round-3 boundary
		// and re-plan the completed rounds in between.
		{"checkpoint-every-third-round", 3, []int{379, 391}, 2, 1, []int{378, 378}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runCrashing(t, t.TempDir(), tc.every, tc.crashes)
			if got.warm != tc.warm || got.cold != tc.cold {
				t.Errorf("lifecycle: %d warm / %d cold starts, want %d/%d", got.warm, got.cold, tc.warm, tc.cold)
			}
			if got.fits != tc.cold {
				t.Errorf("%d fits over %d cold starts: a warm start retrained", got.fits, tc.cold)
			}
			if !slices.Equal(got.resumes, tc.resumes) {
				t.Errorf("restarts resumed at %v, want %v", got.resumes, tc.resumes)
			}
			if !slices.Equal(got.allocs, base.allocs) {
				t.Errorf("allocations diverged:\ncrashed       %v\nuninterrupted %v", got.allocs, base.allocs)
			}
			if got.totals != base.totals || got.hash != base.hash {
				t.Errorf("totals %+v hash %x, uninterrupted %+v hash %x", got.totals, got.hash, base.totals, base.hash)
			}
		})
	}
}
