package sweep

// Fault-tolerant execution: one corrupt snapshot or panicking design
// composition must not discard hours of neighboring points, so
// MapTolerant runs every point to completion under a Policy: panics
// are recovered into typed errors, retryable faults are retried with
// exponential backoff and deterministic jitter, per-attempt deadlines
// bound stuck points, and every point that failed (or needed retries
// to succeed) is returned in a deterministic report.
//
// Results of successful points are committed by index, so output is
// byte-identical at any worker count. A timed-out attempt's abandoned
// goroutine can never commit a result — values travel through a
// channel and are discarded once the deadline fires — so a straggler
// completing after its point was reported failed cannot race the
// gather.

import (
	"fmt"
	"runtime/debug"
	"time"

	"fpcache/internal/fault"
)

// Backoff schedule between attempts: the delay before the second
// attempt lies in [backoff/2, backoff], and the range doubles per
// further attempt up to maxBackoff; the jitter within it derives
// deterministically from Policy.Seed.
const (
	backoff    = 100 * time.Millisecond
	maxBackoff = 64 * backoff
)

// Policy configures fault tolerance for one sweep. The zero value
// isolates panics and runs every point exactly once with no deadline —
// the minimum every sweep provides.
type Policy struct {
	// MaxAttempts bounds how many times a point runs before its
	// failure is final; values below 1 mean one attempt (no retry).
	// Only fault.Retryable errors (transient I/O) are retried.
	MaxAttempts int
	// Timeout is the per-attempt deadline; zero disables it. A
	// timed-out attempt counts as a non-retryable fault.ErrTimeout
	// failure (a deterministic simulation that blew its deadline once
	// will blow it again). The attempt's goroutine is abandoned, not
	// killed — its result is discarded, never committed.
	Timeout time.Duration
	// Seed drives the backoff jitter, keyed with the point index and
	// attempt number so schedules are reproducible run to run.
	Seed int64
	// sleep stubs time.Sleep in tests.
	sleep func(time.Duration)
}

func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// PanicError is a recovered sweep-point panic: the fault panic
// isolation exists for. It wraps fault.ErrPointPanic and carries the
// recovered value and the goroutine stack captured at recovery.
type PanicError struct {
	Index int
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("point %d: %v: %v", e.Index, fault.ErrPointPanic, e.Value)
}

// Unwrap ties the panic into the fault taxonomy.
func (e *PanicError) Unwrap() error { return fault.ErrPointPanic }

// PointReport describes one point that did not succeed on its first
// attempt: either it eventually succeeded after retries (Err == nil,
// Attempts > 1) or it failed for good (Err != nil).
type PointReport struct {
	// Index is the point's job index.
	Index int
	// Attempts is how many times the point ran.
	Attempts int
	// Err is the final failure, nil if a retry succeeded.
	Err error
	// Class is the fault classification of Err (ClassNone on success).
	Class fault.Class
	// Stack is the captured goroutine stack when Err is a panic.
	Stack string
}

// MapTolerant executes jobs 0..n-1 on at most workers goroutines
// (workers < 1 selects GOMAXPROCS) under the policy. Every point
// executes regardless of other points' failures; the returned reports
// (ordered by index) cover exactly the points that failed or needed
// retries. Failed points leave the zero value in their result slot;
// out[i] is valid exactly when no report with Err != nil names index
// i. Successful results are committed by index, so output is
// byte-identical at any worker count.
func MapTolerant[T any](workers, n int, pol Policy, job func(i int) (T, error)) ([]T, []PointReport) {
	out := make([]T, n)
	perPoint := make([]*PointReport, n)
	forEach(workers, n, func(i int) {
		v, rep := runPoint(i, pol, job)
		if rep == nil || rep.Err == nil {
			out[i] = v
		}
		perPoint[i] = rep
	})
	var reports []PointReport
	for _, r := range perPoint {
		if r != nil {
			reports = append(reports, *r)
		}
	}
	return out, reports
}

// runPoint drives one point through the attempt/retry loop.
func runPoint[T any](i int, pol Policy, job func(i int) (T, error)) (T, *PointReport) {
	var zero T
	for attempt := 1; ; attempt++ {
		v, err := runAttempt(i, pol.Timeout, job)
		if err == nil {
			if attempt > 1 {
				return v, &PointReport{Index: i, Attempts: attempt}
			}
			return v, nil
		}
		if attempt >= pol.attempts() || !fault.Retryable(err) {
			rep := &PointReport{Index: i, Attempts: attempt, Err: err, Class: fault.ClassOf(err)}
			if pe, ok := err.(*PanicError); ok {
				rep.Stack = pe.Stack
			}
			return zero, rep
		}
		sleep := pol.sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(backoffDelay(pol.Seed, i, attempt))
	}
}

// runAttempt executes one guarded attempt, bounded by the deadline.
func runAttempt[T any](i int, timeout time.Duration, job func(i int) (T, error)) (T, error) {
	if timeout <= 0 {
		return guarded(i, job)
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := guarded(i, job)
		ch <- result{v, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		var zero T
		return zero, fmt.Errorf("point %d: %w after %v", i, fault.ErrTimeout, timeout)
	}
}

// guarded runs the job with panic isolation.
func guarded[T any](i int, job func(i int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p, Stack: string(debug.Stack())}
		}
	}()
	return job(i)
}

// backoffDelay computes the sleep before attempt+1: exponential in the
// retry count with up to 50% deterministic jitter, so colliding
// retries (many points hitting one recovering disk) spread out
// reproducibly.
func backoffDelay(seed int64, index, attempt int) time.Duration {
	d := backoff << (attempt - 1)
	if d <= 0 || d > maxBackoff { // <= 0 catches shift overflow
		d = maxBackoff
	}
	j := splitmix64(uint64(seed) ^ uint64(index)*0x9E3779B97F4A7C15 ^ uint64(attempt))
	jitter := time.Duration(j % uint64(d/2+1))
	return d/2 + jitter
}

// splitmix64 is the canonical 64-bit mixer: deterministic, seedable,
// and stateless, which is exactly what reproducible jitter needs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
