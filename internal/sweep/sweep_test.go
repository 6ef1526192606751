package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"fpcache/internal/fault"
)

func TestMapExecutesEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		counts := make([]atomic.Int32, n)
		if _, err := Map(workers, n, func(i int) (struct{}, error) {
			counts[i].Add(1)
			return struct{}{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := Map(4, 0, func(int) (int, error) { t.Fatal("job ran"); return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapReportsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := Map(workers, 50, func(i int) (int, error) {
			if i == 7 || i == 31 {
				return 0, fmt.Errorf("job says %w", boom)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// Deterministic selection: always the lowest failing index.
		want := "sweep: job 7: job says boom"
		if err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err.Error(), want)
		}
	}
}

func TestMapGathersInDeclarationOrder(t *testing.T) {
	const n = 200
	got, err := Map(16, n, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapSerialParallelIdentical(t *testing.T) {
	job := func(i int) (string, error) { return fmt.Sprintf("row-%03d", i), nil }
	serial, err := Map(1, 64, job)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(8, 64, job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs: %q vs %q", i, serial[i], parallel[i])
		}
	}
}

func TestMapErrorReturnsNil(t *testing.T) {
	got, err := Map(4, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got != nil {
		t.Fatalf("partial results leaked: %v", got)
	}
}

// TestMapIsolatesPanic: a panicking job fails the sweep with a typed
// error instead of crashing the process, after every other job ran.
func TestMapIsolatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		_, err := Map(workers, 8, func(i int) (int, error) {
			ran.Add(1)
			if i == 2 {
				panic("design bug")
			}
			return i, nil
		})
		if !errors.Is(err, fault.ErrPointPanic) || !strings.HasPrefix(err.Error(), "sweep: job 2: ") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if n := ran.Load(); n != 8 {
			t.Fatalf("workers=%d: %d of 8 jobs ran", workers, n)
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(-3); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", w)
	}
	if w := Workers(5); w != 5 {
		t.Fatalf("Workers(5) = %d", w)
	}
}
