// Package sim provides the discrete-event simulation kernel used by
// the timing model: a monotonic cycle clock and a typed binary-heap
// event queue with deterministic tie-breaking.
//
// Components schedule callbacks at absolute cycle times; the engine
// runs them in (time, insertion-order) order, so simulations are fully
// deterministic for a given seed and configuration. The queue is a
// min-heap over a slice of *event ordered by (at, seq), sifted by
// hand rather than through container/heap, so pushes and pops pay no
// interface dispatch; (at, seq) is a total order, so the pop sequence
// is the same for any correct heap.
//
// Fired and cancelled events are recycled through a free list, so a
// steady-state simulation churns no *event allocations: the live
// allocation count is bounded by the maximum number of simultaneously
// pending events. Tickets carry a generation counter so cancelling an
// already-recycled event is a safe no-op. Callers that schedule the
// same callback repeatedly bind it once (a method value stored in a
// field) so scheduling allocates nothing either.
package sim

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// Event is a scheduled callback.
type event struct {
	at   Cycle
	seq  uint64
	fn   func()
	dead bool
	// gen increments every time the event object is recycled,
	// invalidating Tickets issued for earlier incarnations.
	gen uint32
}

// before reports whether a fires before b: earlier time first, then
// insertion order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events under before.
type eventHeap []*event

// push adds ev to the heap.
func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; the heap must be
// non-empty.
func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Engine is the event-driven simulation core. The zero value is ready
// to use at cycle 0.
type Engine struct {
	now   Cycle
	seq   uint64
	queue eventHeap
	free  []*event
	// Executed counts events run, for progress reporting and
	// runaway-simulation guards.
	Executed uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Cycle { return e.now }

// Ticket identifies a scheduled event so it can be cancelled. The
// generation guards against the event object having been recycled for
// a later schedule.
type Ticket struct {
	ev  *event
	gen uint32
}

// recycle returns a popped event to the free list, invalidating any
// outstanding Tickets for it.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.dead = true
	ev.gen++
	e.free = append(e.free, ev)
}

// Schedule runs fn at absolute cycle at. Scheduling in the past (at <
// Now) runs the event at the current time, preserving order. It
// returns a Ticket that can cancel the event before it fires. The
// event comes from the free list, or is allocated when every event
// object is pending.
//
//fplint:hotpath
func (e *Engine) Schedule(at Cycle, fn func()) Ticket {
	if at < e.now {
		at = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.fn, ev.dead = at, fn, false
	} else {
		//fplint:ignore allocbudget free-list miss: live events are bounded by the peak pending count, so steady state never reaches it
		ev = &event{at: at, fn: fn}
	}
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	return Ticket{ev: ev, gen: ev.gen}
}

// After runs fn delta cycles from now.
func (e *Engine) After(delta Cycle, fn func()) Ticket {
	return e.Schedule(e.now+delta, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an
// already-fired or already-cancelled event is a no-op. It reports
// whether the event was live.
func (e *Engine) Cancel(t Ticket) bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// Pending returns the number of events still queued (including
// cancelled events not yet drained).
func (e *Engine) Pending() int { return len(e.queue) }

// Step executes the next event. It reports false if the queue is
// empty.
//
//fplint:hotpath
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.Executed++
		fn := ev.fn
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or until the optional
// stop predicate returns true (checked before each event). It returns
// the final simulated time.
func (e *Engine) Run(stop func() bool) Cycle {
	for {
		if stop != nil && stop() {
			return e.now
		}
		if !e.Step() {
			return e.now
		}
	}
}

// RunUntil executes events with timestamps <= deadline.
func (e *Engine) RunUntil(deadline Cycle) Cycle {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.dead {
			e.recycle(e.queue.pop())
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
