// Package par is the shared worker-pool execution layer for the
// measurement and experiment stack (eval, meta.TrainCentralized,
// experiments): bounded fan-out over an index space with deterministic
// results. Federated training is not a caller: its nodes are goroutines of
// internal/core's one round loop.
//
// The contract every caller relies on:
//
//   - Work is identified by index. fn(i) must be a pure function of i and
//     of state that is read-only during the fan-out (θ, datasets, configs).
//   - Outputs go into index-addressed slots (one slot per i), never into
//     shared accumulators. Reductions happen after the pool drains, in
//     fixed index order, on the calling goroutine.
//   - Per-worker scratch (nn.Workspace, meta.Workspace, gradient buffers)
//     is indexed by the worker id passed to ForEachWorker. Which worker
//     executes which index is scheduling-dependent, but since workspaces
//     are pure scratch this never changes any result.
//
// Under these rules the numbers produced are bit-identical for every
// worker count, including 1 — the parallel suite is byte-for-byte the
// sequential suite, only faster. Top-level fan-outs pass 0, meaning
// runtime.GOMAXPROCS(0), so GOMAXPROCS is the knob; calls nested inside a
// parallel cell pass 1.
//
// Scheduling hands out *batched index ranges*: each atomic claim grabs a
// contiguous chunk of ~n/(8·w) indices (singles when n is small), so the
// per-index synchronization cost is amortized across the chunk while the
// tail still load-balances across 8·w claims. Chunking only changes which
// worker runs which index — never the per-index-slot outputs — so the
// determinism contract above is unaffected.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a configured worker count: any value <= 0 selects
// runtime.GOMAXPROCS(0), so zero configs "just work" and scale with the
// machine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Span returns the number of workers a fan-out over n items actually uses:
// Workers(workers) clamped to n. Callers allocating per-worker scratch
// (one workspace per worker) size their slices with Span so ids seen by
// ForEachWorker always index in bounds.
func Span(workers, n int) int {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach invokes fn(i) for every i in [0, n) using at most
// Workers(workers) concurrent goroutines. It returns when all n calls have
// completed. When the pool degenerates to a single worker, fn runs on the
// calling goroutine with no synchronization at all.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the worker id (in [0, Span(workers, n)))
// passed to fn, so callers can index per-worker scratch. Index ranges are
// handed out dynamically (work stealing) in chunks of chunkSize(n, w), so
// which worker runs which index is not deterministic — only results written
// to per-index slots are.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Span(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	chunk := chunkSize(n, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(wk, i)
				}
			}
		}(wk)
	}
	wg.Wait()
}

// chunkSize is the number of indices one atomic claim hands a worker:
// n/(8·w), floored at 1. Eight claims per worker amortizes the shared-
// counter contention that dominated the old one-index-per-CAS scheduler
// while keeping enough claims in flight that an uneven fn cost still load-
// balances; for small n it degrades to the old per-index behaviour.
func chunkSize(n, w int) int {
	c := n / (8 * w)
	if c < 1 {
		return 1
	}
	return c
}

// ForEachErr runs fn(i) for every i in [0, n) on the pool and returns the
// error of the smallest failing index (deterministic regardless of
// schedule), or nil. All n calls run to completion even after a failure —
// matching the sequential loop that checks errors only after the round.
// The error slots are freshly allocated per call, so no stale error from a
// previous invocation can leak into this one.
func ForEachErr(workers, n int, fn func(i int) error) error {
	return ForEachWorkerErr(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorkerErr is ForEachErr with the worker id passed to fn.
func ForEachWorkerErr(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEachWorker(workers, n, func(wk, i int) { errs[i] = fn(wk, i) })
	return FirstError(errs)
}

// FirstError returns the lowest-indexed non-nil error in errs, or nil.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
