// Package parallel is the shared bounded worker pool behind the
// repository's hot paths: Monte-Carlo sampling in DeepAR, data-parallel
// mini-batch training in the neural forecasters, the fleet controller's
// per-tenant rounds, and the concurrent experiment runner.
//
// The package enforces one discipline everywhere: parallelism must never
// change results. Callers get it by (a) writing only to per-index slots,
// (b) deriving any randomness from the task index, never from the worker,
// and (c) merging per-worker accumulators in a fixed order after Wait. The
// helpers here only distribute indices; they deliberately carry no state of
// their own that could make scheduling observable.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"robustscale/internal/obs"
)

// Workers normalizes a requested worker count: requested <= 0 means "one
// worker per P" (runtime.GOMAXPROCS); the result is clamped to [1, tasks]
// so callers never spawn idle goroutines.
func Workers(requested, tasks int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// claimsPerWorker is how many runs of indices each worker claims from the
// shared counter, on average. One claim per index made contention on the
// counter the biggest cost of a fleet round outside every layer; sixteen
// per worker keep the claims rare and leave at most 1/16 of a worker's
// share as tail when task costs are skewed (DESIGN.md §4).
const claimsPerWorker = 16

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines and blocks until all calls return. Indices are handed out
// dynamically, in runs of consecutive indices claimed from an atomic
// counter, so fn must not care which goroutine runs which index. workers
// is normalized with Workers. With one worker the loop runs inline on the
// caller's goroutine, so the sequential path pays nothing for the
// abstraction.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach for callers that keep per-worker state (scratch
// arenas, gradient buffers): fn receives the worker id in [0, workers) in
// addition to the task index. Worker ids identify the goroutine, not the
// schedule — any index may run on any worker, so per-worker state must be
// merged order-independently or keyed by index afterwards.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	dispatch(nil, "", workers, n, fn)
}

// ForEachWorkerSpan is ForEachWorker with per-worker trace spans: each
// worker's whole participation in the loop is recorded as one span named
// name on its own trace row (obs.WorkerTID0+worker), so fan-out phases —
// Monte-Carlo sampling, mini-batch gradients, fleet plan/apply rounds —
// render as parallel lanes in the Chrome trace. Scheduling is identical to
// ForEachWorker; with tracing disabled the extra cost is one atomic load
// per worker, not per task.
func ForEachWorkerSpan(name string, workers, n int, fn func(worker, i int)) {
	dispatch(obs.DefaultTracer, name, workers, n, fn)
}

// dispatch is the one loop behind every entry point. Each atomic claim
// takes a run of max(1, n/(claimsPerWorker·workers)) consecutive indices,
// which the claiming worker runs in ascending order. tr, when non-nil,
// records each worker's participation as one span named name.
func dispatch(tr *obs.Tracer, name string, workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		sp := tr.StartTID(name, obs.WorkerTID0)
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		sp.End()
		return
	}
	run := max(1, n/(claimsPerWorker*workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			sp := tr.StartTID(name, uint64(obs.WorkerTID0+worker))
			defer sp.End()
			for {
				hi := int(next.Add(int64(run)))
				lo := hi - run
				if lo >= n {
					return
				}
				for i, end := lo, min(hi, n); i < end; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// FirstError returns the first non-nil error in index order, or nil. It is
// the companion to ForEach for fallible tasks: collect one error per slot,
// then report deterministically.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
