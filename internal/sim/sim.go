// Package sim provides the discrete-event simulation kernel used by
// the timing model: a monotonic cycle clock and a two-tier event
// queue with deterministic tie-breaking.
//
// Components schedule callbacks at absolute cycle times; the engine
// runs them in (time, insertion-order) order, so simulations are fully
// deterministic for a given seed and configuration.
//
// The queue is a calendar wheel (Brown's calendar queue with
// one-cycle buckets) backed by a binary heap. An event due within
// wheelSize cycles of now goes into the bucket for its cycle: an
// intrusive FIFO, so it costs O(1) to insert and, with an occupancy
// bitmap scanned a word at a time, O(1) to find and pop. Timing-model
// events are almost all that close: a DRAM command, a core's next
// cycle, a completion. Events further out go to the heap, a min-heap
// over (at, seq) sifted by hand. The engine pops the smaller of the
// wheel head and the heap top by (at, seq), so an event never moves
// between tiers. Each wheel bucket holds events of one cycle only
// (every queued event lies in [now, now+wheelSize)), inserted in seq
// order, so its FIFO order is (at, seq) order and the pop sequence is
// the same as a single heap's.
//
// Fired and cancelled events are recycled through a free list, so a
// steady-state simulation churns no *event allocations: the live
// allocation count is bounded by the maximum number of simultaneously
// pending events. Tickets carry a generation counter so cancelling an
// already-recycled event is a safe no-op. Callers that schedule the
// same callback repeatedly bind it once (a method value stored in a
// field) so scheduling allocates nothing either.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// wheelSize is the calendar wheel's span in cycles: an event due less
// than wheelSize cycles from now goes into the wheel, a later one into
// the overflow heap. On the timing workloads a fifth of all events are
// due in the cycle they are scheduled and more than 99.9% within 2048
// cycles. It must be a power of two and a multiple of 64.
const (
	wheelSize = 2048
	wheelMask = wheelSize - 1
)

// Event is a scheduled callback.
type event struct {
	at   Cycle
	seq  uint64
	fn   func()
	next *event // next event in the same wheel bucket
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

// bucket is one wheel slot: a FIFO of the events due in one cycle.
type bucket struct {
	head, tail *event
}

// Engine is the event-driven simulation core. The zero value is ready
// to use at cycle 0.
type Engine struct {
	now Cycle
	seq uint64
	// wheel holds events due in [now, now+wheelSize), bucket at&wheelMask;
	// occ has a bit set per non-empty bucket. The array is embedded so
	// the zero Engine needs no setup and scheduling never allocates it.
	wheel  [wheelSize]bucket
	occ    [wheelSize / 64]uint64
	nWheel int
	// over holds events due wheelSize or more cycles past the now of
	// their scheduling.
	over eventHeap
	free []*event
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
	if at-e.now < wheelSize {
		i := at & wheelMask
		b := &e.wheel[i]
		if b.tail == nil {
			b.head = ev
			e.occ[i>>6] |= 1 << (i & 63)
		} else {
			b.tail.next = ev
		}
		b.tail = ev
		e.nWheel++
	} else {
		e.over.push(ev)
	}
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
func (e *Engine) Pending() int { return e.nWheel + len(e.over) }

// wheelHead returns the head of the first non-empty bucket at or after
// now, which is the earliest wheel event; nil when the wheel is empty.
func (e *Engine) wheelHead() *event {
	if e.nWheel == 0 {
		return nil
	}
	start := uint(e.now & wheelMask)
	w := start >> 6
	word := e.occ[w] &^ (1<<(start&63) - 1)
	// The last pass re-reads the starting word whole: its bits below
	// start are the buckets that wrapped around.
	for range len(e.occ) + 1 {
		if word != 0 {
			return e.wheel[w<<6|uint(bits.TrailingZeros64(word))].head
		}
		w = (w + 1) % uint(len(e.occ))
		word = e.occ[w]
	}
	panic("sim: wheel count and occupancy disagree")
}

// peek returns the earliest queued event without removing it, or nil:
// the wheel head or the heap top, whichever comes first by (at, seq).
func (e *Engine) peek() *event {
	ev := e.wheelHead()
	if len(e.over) > 0 && (ev == nil || e.over[0].before(ev)) {
		return e.over[0]
	}
	return ev
}

// pop removes and returns the earliest queued event, or nil when the
// queue is empty.
//
//fplint:hotpath
func (e *Engine) pop() *event {
	ev := e.peek()
	if ev == nil {
		return nil
	}
	if len(e.over) > 0 && e.over[0] == ev {
		return e.over.pop()
	}
	i := ev.at & wheelMask
	b := &e.wheel[i]
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
		e.occ[i>>6] &^= 1 << (i & 63)
	}
	ev.next = nil
	e.nWheel--
	return ev
}

// Step executes the next event. It reports false if the queue is
// empty.
//
//fplint:hotpath
func (e *Engine) Step() bool {
	for {
		ev := e.pop()
		if ev == nil {
			return false
		}
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
	for {
		next := e.peek()
		if next == nil {
			break
		}
		if next.dead {
			e.recycle(e.pop())
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
