package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"robustscale/internal/obs"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		requested, tasks, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{4, 100, 4},
		{8, 3, 3},
		{1, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.tasks); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.tasks, got, c.want)
		}
	}
}

// TestWorkersFollowsGOMAXPROCS: the default is one worker per P, not per
// CPU, so GOMAXPROCS=1 on a many-core box gets one worker.
func TestWorkersFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Workers(0, 100); got != 1 {
		t.Errorf("Workers(0, 100) under GOMAXPROCS=1 = %d, want 1", got)
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	if ran {
		t.Error("fn ran with zero tasks")
	}
}

func TestForEachWorkerIDsInRange(t *testing.T) {
	const workers, n = 5, 200
	var bad atomic.Int32
	ForEachWorker(workers, n, func(worker, i int) {
		if worker < 0 || worker >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Errorf("%d calls saw an out-of-range worker id", bad.Load())
	}
}

// TestForEachDeterministicSlots is the pattern every caller relies on:
// writes keyed by index produce identical results for any worker count.
func TestForEachDeterministicSlots(t *testing.T) {
	const n = 500
	ref := make([]int, n)
	ForEach(1, n, func(i int) { ref[i] = i * i })
	for _, workers := range []int{2, 3, 16} {
		got := make([]int, n)
		ForEach(workers, n, func(i int) { got[i] = i * i })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestFirstError(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	if err := FirstError([]error{nil, nil}); err != nil {
		t.Errorf("FirstError(nil,nil) = %v", err)
	}
	if err := FirstError([]error{nil, e2, e1}); err != e2 {
		t.Errorf("FirstError = %v, want %v", err, e2)
	}
	if err := FirstError(nil); err != nil {
		t.Errorf("FirstError(empty) = %v", err)
	}
}

// TestForEachWorkerSpanMatchesForEachWorker: the traced variant schedules
// identically — every index covered once, worker ids in range — with
// tracing on and off.
func TestForEachWorkerSpanMatchesForEachWorker(t *testing.T) {
	obs.DefaultTracer.Reset()
	defer obs.DefaultTracer.SetEnabled(false)
	for _, enabled := range []bool{false, true} {
		obs.DefaultTracer.SetEnabled(enabled)
		for _, workers := range []int{1, 2, 7} {
			const n = 300
			var hits [n]atomic.Int32
			var bad atomic.Int32
			ForEachWorkerSpan("test.loop", workers, n, func(worker, i int) {
				hits[i].Add(1)
				if worker < 0 || worker >= workers {
					bad.Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("enabled=%v workers=%d: index %d ran %d times", enabled, workers, i, hits[i].Load())
				}
			}
			if bad.Load() != 0 {
				t.Errorf("enabled=%v workers=%d: out-of-range worker ids", enabled, workers)
			}
		}
	}
}

// TestForEachWorkerSpanRecordsPerWorkerLanes: with tracing enabled each
// participating worker contributes one span on its own trace row; with it
// disabled nothing is recorded. Runs under -race in CI, exercising
// concurrent span open/close from the pool's goroutines.
func TestForEachWorkerSpanRecordsPerWorkerLanes(t *testing.T) {
	obs.DefaultTracer.Reset()
	obs.DefaultTracer.SetEnabled(true)
	defer func() {
		obs.DefaultTracer.SetEnabled(false)
		obs.DefaultTracer.Reset()
	}()

	const workers, n = 4, 64
	ForEachWorkerSpan("test.lanes", workers, n, func(worker, i int) {})
	events := obs.DefaultTracer.Events()
	if len(events) != workers {
		t.Fatalf("recorded %d spans, want one per worker (%d)", len(events), workers)
	}
	seen := map[uint64]bool{}
	for _, ev := range events {
		if ev.Name != "test.lanes" {
			t.Errorf("span name = %q", ev.Name)
		}
		if ev.TID < obs.WorkerTID0 || ev.TID >= obs.WorkerTID0+workers {
			t.Errorf("span tid = %d outside worker rows", ev.TID)
		}
		if seen[ev.TID] {
			t.Errorf("two spans on tid %d", ev.TID)
		}
		seen[ev.TID] = true
	}

	obs.DefaultTracer.Reset()
	obs.DefaultTracer.SetEnabled(false)
	ForEachWorkerSpan("test.lanes", workers, n, func(worker, i int) {})
	if obs.DefaultTracer.Len() != 0 {
		t.Errorf("disabled tracer recorded %d spans", obs.DefaultTracer.Len())
	}

	// The single-worker inline path records one span too.
	obs.DefaultTracer.SetEnabled(true)
	obs.DefaultTracer.Reset()
	ForEachWorkerSpan("test.inline", 1, 8, func(worker, i int) {})
	events = obs.DefaultTracer.Events()
	if len(events) != 1 || events[0].TID != obs.WorkerTID0 {
		t.Errorf("inline path events = %+v", events)
	}
}

// entryPoints are the two dispatchers that hand fn a worker id.
var entryPoints = []struct {
	name string
	run  func(workers, n int, fn func(worker, i int))
}{
	{"ForEachWorker", ForEachWorker},
	{"ForEachWorkerSpan", func(workers, n int, fn func(worker, i int)) {
		ForEachWorkerSpan("test.dispatch", workers, n, fn)
	}},
}

// dispatched runs n tasks on workers through run and returns the indices
// each worker ran, in the order it ran them. A worker id out of range is
// a test failure, not a panic. Each worker's first call waits until every
// worker has made one, so none claims twice before all have claimed once:
// a fast worker cannot run the whole loop alone and hide how it is cut.
func dispatched(t testing.TB, run func(workers, n int, fn func(worker, i int)), workers, n int) [][]int {
	t.Helper()
	seen := make([][]int, Workers(workers, n))
	var bad, arrived atomic.Int32
	all := make(chan struct{})
	run(workers, n, func(worker, i int) {
		if worker < 0 || worker >= len(seen) {
			bad.Add(1)
			return
		}
		if len(seen[worker]) == 0 {
			if arrived.Add(1) == int32(len(seen)) {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(time.Second): // a worker that never runs fails the checks, not a deadline
			}
		}
		seen[worker] = append(seen[worker], i) // one goroutine per worker id
	})
	if bad.Load() != 0 {
		t.Fatalf("workers=%d n=%d: %d calls saw a worker id outside [0, %d)", workers, n, bad.Load(), len(seen))
	}
	return seen
}

// checkDispatch fails unless every index in [0, n) ran exactly once and
// each worker ran its indices as ascending runs of the claim length, each
// starting on a multiple of it (only the run that ends at n may be
// shorter).
func checkDispatch(t testing.TB, workers, n int, seen [][]int) {
	t.Helper()
	run := max(1, n/(claimsPerWorker*Workers(workers, n)))
	for w, idx := range seen {
		for p := 0; p < len(idx); {
			lo := idx[p]
			if lo%run != 0 {
				t.Fatalf("workers=%d n=%d: worker %d starts a run at %d, not a multiple of the claim length %d", workers, n, w, lo, run)
			}
			for i := lo; i < min(lo+run, n); i, p = i+1, p+1 {
				if p >= len(idx) || idx[p] != i {
					t.Fatalf("workers=%d n=%d: worker %d's run from %d breaks off at position %d (claim length %d): %v", workers, n, w, lo, p, run, idx)
				}
			}
		}
	}
	counts := make([]int, n)
	for _, idx := range seen {
		for _, i := range idx {
			if i < 0 || i >= n {
				t.Fatalf("workers=%d n=%d: index %d outside [0, n)", workers, n, i)
			}
			counts[i]++
		}
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
		}
	}
}

// TestDispatchTable: both worker-id entry points, over task counts on
// either side of the small-n boundaries and worker counts from inline to
// more workers than tasks, run every index once on an in-range worker, in
// ascending runs of the claim length.
func TestDispatchTable(t *testing.T) {
	for _, ep := range entryPoints {
		for _, n := range []int{1, 2, 31, 32, 33, 1000, 1001} {
			for _, workers := range []int{1, 2, 3, 7, 64} {
				checkDispatch(t, workers, n, dispatched(t, ep.run, workers, n))
			}
		}
	}
}

// FuzzForEachWorker holds the dispatchers to the same properties on
// arbitrary task and worker counts (workers <= 0 means the default).
func FuzzForEachWorker(f *testing.F) {
	for _, seed := range [][2]int{{0, 0}, {1, 1}, {33, 2}, {1001, 7}, {5, 64}, {100, -1}} {
		f.Add(seed[0], seed[1], false)
		f.Add(seed[0], seed[1], true)
	}
	f.Fuzz(func(t *testing.T, n, workers int, traced bool) {
		n, workers = n%5000, workers%130
		if n < 0 {
			n = -n
		}
		ep := entryPoints[0]
		if traced {
			ep = entryPoints[1]
		}
		checkDispatch(t, workers, n, dispatched(t, ep.run, workers, n))
	})
}
