package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fpcache/internal/fault"
)

// TestTolerantPanicIsolation: a panicking point must not take the
// sweep down; every other point completes and the report carries the
// class and a captured stack.
func TestTolerantPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, reports := MapTolerant(workers, 8, Policy{}, func(i int) (int, error) {
			if i == 3 {
				panic("design bug")
			}
			return i * 10, nil
		})
		for i, v := range out {
			want := i * 10
			if i == 3 {
				want = 0
			}
			if v != want {
				t.Fatalf("workers=%d out[%d] = %d, want %d", workers, i, v, want)
			}
		}
		if len(reports) != 1 {
			t.Fatalf("workers=%d: %d reports, want 1", workers, len(reports))
		}
		r := reports[0]
		if r.Index != 3 || r.Class != fault.ClassPanic || r.Err == nil {
			t.Fatalf("workers=%d: report %+v", workers, r)
		}
		if !errors.Is(r.Err, fault.ErrPointPanic) {
			t.Fatalf("panic error does not wrap ErrPointPanic: %v", r.Err)
		}
		if !strings.Contains(r.Stack, "tolerant_test.go") {
			t.Fatalf("stack not captured:\n%s", r.Stack)
		}
	}
}

// TestTolerantRetryToSuccess: a transient fault clears on retry; the
// result is identical to an unfaulted run and the report records the
// attempt count with a nil error.
func TestTolerantRetryToSuccess(t *testing.T) {
	var mu sync.Mutex
	attempts := map[int]int{}
	pol := Policy{MaxAttempts: 3, sleep: func(time.Duration) {}}
	out, reports := MapTolerant(2, 4, pol, func(i int) (int, error) {
		mu.Lock()
		attempts[i]++
		a := attempts[i]
		mu.Unlock()
		if i == 2 && a <= 2 {
			return 0, fmt.Errorf("flaky read: %w", fault.ErrTransientIO)
		}
		return i + 100, nil
	})
	if !reflect.DeepEqual(out, []int{100, 101, 102, 103}) {
		t.Fatalf("out = %v", out)
	}
	if len(reports) != 1 || reports[0].Index != 2 || reports[0].Attempts != 3 || reports[0].Err != nil {
		t.Fatalf("reports = %+v", reports)
	}
}

// TestTolerantRetryBudgetExhausted: a persistent transient fault fails
// after MaxAttempts with the attempt count recorded.
func TestTolerantRetryBudgetExhausted(t *testing.T) {
	pol := Policy{MaxAttempts: 3, sleep: func(time.Duration) {}}
	_, reports := MapTolerant(1, 2, pol, func(i int) (int, error) {
		if i == 1 {
			return 0, fmt.Errorf("always down: %w", fault.ErrTransientIO)
		}
		return i, nil
	})
	if len(reports) != 1 || reports[0].Attempts != 3 || reports[0].Class != fault.ClassTransientIO {
		t.Fatalf("reports = %+v", reports)
	}
}

// TestTolerantNonRetryableFailsFast: corruption is not retried even
// with attempts in the budget.
func TestTolerantNonRetryableFailsFast(t *testing.T) {
	calls := 0
	pol := Policy{MaxAttempts: 5, sleep: func(time.Duration) {}}
	_, reports := MapTolerant(1, 1, pol, func(i int) (int, error) {
		calls++
		return 0, fmt.Errorf("bad chunk: %w", fault.ErrCorruptTrace)
	})
	if calls != 1 {
		t.Fatalf("non-retryable error ran %d attempts", calls)
	}
	if len(reports) != 1 || reports[0].Class != fault.ClassCorruptTrace {
		t.Fatalf("reports = %+v", reports)
	}
}

// TestTolerantTimeout: a stuck point is bounded by the deadline,
// classified as a timeout, and its straggling result is never
// committed.
func TestTolerantTimeout(t *testing.T) {
	release := make(chan struct{})
	pol := Policy{Timeout: 20 * time.Millisecond}
	out, reports := MapTolerant(2, 3, pol, func(i int) (int, error) {
		if i == 1 {
			<-release
			return 999, nil
		}
		return i, nil
	})
	close(release) // let the straggler finish after the sweep returned
	if len(reports) != 1 || reports[0].Index != 1 || reports[0].Class != fault.ClassTimeout {
		t.Fatalf("reports = %+v", reports)
	}
	if !errors.Is(reports[0].Err, fault.ErrTimeout) {
		t.Fatalf("timeout error does not wrap ErrTimeout: %v", reports[0].Err)
	}
	if out[1] != 0 {
		t.Fatalf("timed-out point committed a result: %d", out[1])
	}
	if out[0] != 0+0 || out[2] != 2 {
		t.Fatalf("out = %v", out)
	}
}

// TestTolerantDeterministicAcrossWorkers: results and reports are
// identical at every worker count, including under injected faults.
func TestTolerantDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]int, []PointReport) {
		var mu sync.Mutex
		attempts := map[int]int{}
		pol := Policy{MaxAttempts: 2, sleep: func(time.Duration) {}}
		return MapTolerant(workers, 16, pol, func(i int) (int, error) {
			mu.Lock()
			attempts[i]++
			a := attempts[i]
			mu.Unlock()
			switch {
			case i == 5:
				panic("boom")
			case i == 9 && a == 1:
				return 0, fmt.Errorf("blip: %w", fault.ErrTransientIO)
			}
			return i * i, nil
		})
	}
	out1, rep1 := run(1)
	out8, rep8 := run(8)
	if !reflect.DeepEqual(out1, out8) {
		t.Fatalf("results differ across worker counts:\n1: %v\n8: %v", out1, out8)
	}
	if len(rep1) != len(rep8) {
		t.Fatalf("report counts differ: %d vs %d", len(rep1), len(rep8))
	}
	for i := range rep1 {
		a, b := rep1[i], rep8[i]
		if a.Index != b.Index || a.Attempts != b.Attempts || a.Class != b.Class {
			t.Fatalf("report %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestBackoffDelayDeterministic: the jitter schedule is a pure
// function of (seed, index, attempt) and stays within bounds.
func TestBackoffDelayDeterministic(t *testing.T) {
	for attempt := 1; attempt <= 70; attempt++ {
		a := backoffDelay(42, 7, attempt)
		b := backoffDelay(42, 7, attempt)
		if a != b {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, a, b)
		}
		if a <= 0 || a > maxBackoff {
			t.Fatalf("attempt %d: delay %v out of (0, %v]", attempt, a, maxBackoff)
		}
	}
}
