// Package sweep is a deterministic, fault-tolerant parallel job
// executor for the simulation harness. Every point of an experiment
// grid (workload, design, capacity, seed) is an independent
// simulation, so drivers fan their points out over a bounded worker
// pool and gather results in job-index order: output is byte-identical
// no matter how many workers run or how the scheduler interleaves
// them.
//
// There is one executor, MapTolerant: every point runs to completion
// under panic isolation, a failure is reported per point and never
// aborts its neighbors, and the Policy adds retries and deadlines.
// Map is the same executor with the zero Policy, folding the reports
// into the lowest-indexed error for callers that want all-or-nothing.
//
// The contract that makes this safe is the same one the experiment
// drivers already obey: a job must build all of its own mutable state
// (generator, design, trackers) and communicate only through its
// result. Jobs that share mutable state are not sweepable.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: values below 1 select
// GOMAXPROCS, matching the CLI convention that -j 0 means "all
// cores".
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map executes n value-producing jobs under MapTolerant with the zero
// Policy and returns their results in job-index order. Every job runs;
// if any failed (a panic included), Map returns nil results and the
// lowest-indexed failure — the error a serial loop would have hit
// first, so parallel and serial runs are indistinguishable.
func Map[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	out, reports := MapTolerant(workers, n, Policy{}, job)
	if len(reports) > 0 {
		// The zero Policy never retries, so every report is a failure,
		// and reports are ordered by index.
		return nil, fmt.Errorf("sweep: job %d: %w", reports[0].Index, reports[0].Err)
	}
	return out, nil
}

// forEach runs job(0..n-1) on at most workers goroutines (workers < 1
// selects GOMAXPROCS); one worker runs the jobs inline, in order.
func forEach(workers, n int, job func(i int)) {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(i)
			}
		}()
	}
	wg.Wait()
}
