package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	var e Engine
	var got []Cycle
	for _, at := range []Cycle{30, 10, 20, 10, 5} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run(nil)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestEngineTieBreaksByInsertionOrder(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.Run(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, got)
		}
	}
}

func TestEngineNowAdvances(t *testing.T) {
	var e Engine
	var at Cycle
	e.Schedule(42, func() { at = e.Now() })
	e.Run(nil)
	if at != 42 {
		t.Fatalf("Now() inside event = %d, want 42", at)
	}
	if e.Now() != 42 {
		t.Fatalf("final Now() = %d, want 42", e.Now())
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	var e Engine
	var order []string
	e.Schedule(100, func() {
		e.Schedule(50, func() { order = append(order, "past") })
		order = append(order, "now")
	})
	e.Run(nil)
	if len(order) != 2 || order[0] != "now" || order[1] != "past" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("past-scheduled event advanced clock to %d", e.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var e Engine
	var at Cycle
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run(nil)
	if at != 15 {
		t.Fatalf("After fired at %d, want 15", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	var e Engine
	fired := false
	tk := e.Schedule(10, func() { fired = true })
	if !e.Cancel(tk) {
		t.Fatal("Cancel reported dead for a live event")
	}
	if e.Cancel(tk) {
		t.Fatal("second Cancel reported live")
	}
	e.Run(nil)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	e.Schedule(1, func() {})
	if !e.Step() {
		t.Fatal("Step with queued event returned false")
	}
	if e.Step() {
		t.Fatal("Step after draining returned true")
	}
}

func TestRunStopPredicate(t *testing.T) {
	var e Engine
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Cycle(i), func() { count++ })
	}
	e.Run(func() bool { return count >= 3 })
	if count != 3 {
		t.Fatalf("ran %d events, want 3", count)
	}
}

func TestRunUntilExecutesDeadlineInclusive(t *testing.T) {
	var e Engine
	var got []Cycle
	for _, at := range []Cycle{5, 10, 15} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.RunUntil(10)
	if len(got) != 2 {
		t.Fatalf("RunUntil(10) ran %v", got)
	}
	if e.Now() != 10 {
		t.Fatalf("RunUntil left clock at %d", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var e Engine
	e.RunUntil(99)
	if e.Now() != 99 {
		t.Fatalf("idle RunUntil left clock at %d", e.Now())
	}
}

func TestExecutedCounts(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(Cycle(i), func() {})
	}
	tk := e.Schedule(100, func() {})
	e.Cancel(tk)
	e.Run(nil)
	if e.Executed != 7 {
		t.Fatalf("Executed = %d, want 7 (cancelled events don't count)", e.Executed)
	}
}

func TestCascadingEvents(t *testing.T) {
	var e Engine
	depth := 0
	var spawn func()
	spawn = func() {
		if depth < 100 {
			depth++
			e.After(1, spawn)
		}
	}
	e.Schedule(0, spawn)
	e.Run(nil)
	if depth != 100 {
		t.Fatalf("cascade depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestRecycledEventInvalidatesStaleTicket(t *testing.T) {
	var e Engine
	tk := e.Schedule(1, func() {})
	e.Run(nil)
	// The fired event went back to the free list; its ticket is stale.
	if e.Cancel(tk) {
		t.Fatal("stale ticket cancelled a recycled event")
	}
	// The next schedule reuses the pooled object: cancelling through
	// the stale ticket must not kill the new event.
	fired := false
	e.Schedule(2, func() { fired = true })
	if e.Cancel(tk) {
		t.Fatal("stale ticket reported live after reuse")
	}
	e.Run(nil)
	if !fired {
		t.Fatal("stale ticket cancelled the reused event")
	}
}

func TestCancelledEventsAreRecycled(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		e.Cancel(e.Schedule(Cycle(i), func() {}))
	}
	e.Run(nil)
	if e.Executed != 0 {
		t.Fatalf("cancelled events executed: %d", e.Executed)
	}
	if len(e.free) != 10 {
		t.Fatalf("free list holds %d events, want 10", len(e.free))
	}
}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	var e Engine
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(i), func() {})
	}
	e.Run(nil)
	fn := func() {}
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+step allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestOverflowSchedulingDoesNotAllocate is the overflow-tier twin of
// TestSteadyStateSchedulingDoesNotAllocate: events due beyond the
// wheel go through the heap, whose backing array is reused.
func TestOverflowSchedulingDoesNotAllocate(t *testing.T) {
	var e Engine
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(10*wheelSize+i), func() {})
	}
	e.Run(nil)
	fn := func() {}
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+10*wheelSize, fn)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("overflow schedule+step allocates %.2f allocs/op in steady state, want 0", avg)
	}
	if len(e.over) != 0 || e.nWheel != 0 {
		t.Fatalf("queue not drained: %d overflow, %d wheel", len(e.over), e.nWheel)
	}
}

// Property: for any schedule of random events, execution times are
// non-decreasing and every non-cancelled event runs exactly once.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var times []Cycle
		for i := 0; i < n; i++ {
			at := Cycle(rng.Intn(1000))
			e.Schedule(at, func() { times = append(times, e.Now()) })
		}
		e.Run(nil)
		if len(times) != n {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine runs events exactly in (time, insertion) order
// — the order a stable sort by time gives — with many ties, events
// scheduled from inside events, and cancellations interleaved.
func TestPropertyExactTieOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		type ev struct {
			at        Cycle
			id        int
			cancelled bool
		}
		var sched []*ev
		var got []int
		var add func(at Cycle)
		add = func(at Cycle) {
			x := &ev{at: max(at, e.Now()), id: len(sched)}
			sched = append(sched, x)
			tk := e.Schedule(at, func() {
				got = append(got, x.id)
				if len(sched) < 400 && rng.Intn(2) == 0 {
					add(e.Now() + Cycle(rng.Intn(4)))
				}
			})
			if rng.Intn(8) == 0 {
				x.cancelled = e.Cancel(tk)
			}
		}
		for i := 0; i < 100; i++ {
			add(Cycle(rng.Intn(20)))
		}
		e.Run(nil)
		// Events scheduled from inside an event are inserted after every
		// event already queued, so a stable sort by time over insertion
		// order is the expected firing order.
		var want []*ev
		for _, x := range sched {
			if !x.cancelled {
				want = append(want, x)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// checkOrder drives an Engine through a script of schedules (at
// deltas chosen to hit both tiers and the wheel's edges), schedules
// from inside events, cancellations and RunUntil jumps, all drawn from
// draw(n), which returns a value in [0, n). It reports an error unless
// every live event fired exactly once, at its time, in the order a
// stable sort by time over insertion order gives.
func checkOrder(draw func(n int) int) error {
	var e Engine
	type rec struct {
		at, firedAt Cycle
		id          int
		tk          Ticket
		cancelled   bool
	}
	var sched []*rec
	var got []int
	delta := func() Cycle {
		switch draw(9) {
		case 0:
			return 0
		case 1:
			return wheelSize - 1
		case 2:
			return wheelSize
		case 3:
			return wheelSize + 1
		case 4:
			return 10 * wheelSize
		case 5:
			return Cycle(draw(3 * wheelSize))
		default:
			return Cycle(draw(20))
		}
	}
	var add func(at Cycle)
	add = func(at Cycle) {
		x := &rec{at: max(at, e.Now()), id: len(sched)}
		sched = append(sched, x)
		x.tk = e.Schedule(at, func() {
			got = append(got, x.id)
			x.firedAt = e.Now()
			if len(sched) < 400 && draw(2) == 0 {
				add(e.Now() + delta())
			}
		})
	}
	cancel := func() {
		if len(sched) > 0 {
			x := sched[draw(len(sched))]
			x.cancelled = e.Cancel(x.tk) || x.cancelled
		}
	}
	for i := 0; i < 60; i++ {
		add(delta())
	}
	for round := 0; round < 8; round++ {
		for i := draw(6); i > 0; i-- {
			cancel()
		}
		// Jump by a delta, sometimes much longer than the wheel, with
		// events pending in both tiers.
		e.RunUntil(e.Now() + delta() + Cycle(draw(2))*3*wheelSize)
		for i := draw(20); i > 0; i-- {
			add(e.Now() + delta())
		}
	}
	e.Run(nil)
	if e.Pending() != 0 {
		return fmt.Errorf("%d events pending after Run", e.Pending())
	}
	var want []*rec
	for _, x := range sched {
		if !x.cancelled {
			want = append(want, x)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		return fmt.Errorf("fired %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i].id {
			return fmt.Errorf("event %d: fired id %d, want %d (at %d)", i, got[i], want[i].id, want[i].at)
		}
		if want[i].firedAt != want[i].at {
			return fmt.Errorf("event %d fired at %d, want %d", got[i], want[i].firedAt, want[i].at)
		}
	}
	return nil
}

// Property: exact (time, insertion) order holds across the wheel and
// the overflow heap: deltas at and around wheelSize and far beyond it,
// RunUntil jumps longer than the wheel with events pending, and
// cancellations in both tiers.
func TestPropertyExactOrderAcrossTiers(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if err := checkOrder(rng.Intn); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSameCycleAcrossTiers pins the merge of the two tiers: an event
// scheduled far ahead (overflow heap) and one scheduled later for the
// same cycle from within the wheel's span fire in insertion order.
func TestSameCycleAcrossTiers(t *testing.T) {
	var e Engine
	var got []string
	target := Cycle(3 * wheelSize)
	e.Schedule(target, func() { got = append(got, "overflow") })
	e.RunUntil(target - 1)
	e.Schedule(target, func() { got = append(got, "wheel") })
	if len(e.over) != 1 || e.nWheel != 1 {
		t.Fatalf("tiers hold %d overflow, %d wheel events; want 1 and 1", len(e.over), e.nWheel)
	}
	e.Run(nil)
	if len(got) != 2 || got[0] != "overflow" || got[1] != "wheel" {
		t.Fatalf("order = %v, want [overflow wheel]", got)
	}
}
