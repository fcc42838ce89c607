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

// Workers normalizes a requested worker count: requested <= 0 means "use
// every available CPU" (runtime.NumCPU, itself capped by GOMAXPROCS at run
// time); the result is clamped to [1, tasks] so callers never spawn idle
// goroutines.
func Workers(requested, tasks int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines and blocks until all calls return. Indices are handed out
// dynamically (atomic counter), so fn must not care which goroutine runs
// which index. workers is normalized with Workers. With one worker the
// loop runs inline on the caller's goroutine, so the sequential path pays
// nothing for the abstraction.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach for callers that keep per-worker state (scratch
// arenas, gradient buffers): fn receives the worker id in [0, workers) in
// addition to the task index. Worker ids identify the goroutine, not the
// schedule — any index may run on any worker, so per-worker state must be
// merged order-independently or keyed by index afterwards.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// ForEachWorkerSpan is ForEachWorker with per-worker trace spans: each
// worker's whole participation in the loop is recorded as one span named
// name on its own trace row (obs.WorkerTID0+worker), so fan-out phases —
// Monte-Carlo sampling, mini-batch gradients, fleet plan/apply rounds —
// render as parallel lanes in the Chrome trace. Scheduling is identical to
// ForEachWorker (dynamic index hand-out, merge-order discipline applies
// unchanged); with tracing disabled the extra cost is one atomic load
// per worker, not per task.
func ForEachWorkerSpan(name string, workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		sp := obs.DefaultTracer.StartTID(name, obs.WorkerTID0)
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		sp.End()
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			sp := obs.DefaultTracer.StartTID(name, uint64(obs.WorkerTID0+worker))
			defer sp.End()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
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
