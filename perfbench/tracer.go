package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"time"

	"fpcache/internal/memtrace"
	"fpcache/internal/system"
)

// chunkRecords is how many layer calls one span covers where calls are
// too cheap to time one by one (generator Next, Access, tracker and
// controller calls): the clock is read once per chunk.
const chunkRecords = 4096

// span is one timed call (or chunk of calls) into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run's trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// N is how many calls, references or requests the span covers.
	N int `json:"n"`
}

// recorder collects the spans of one group (set-up, one point, the
// layer replay). Spans are held in memory and written when the run
// ends. A nil recorder records nothing, so untraced code paths call it
// unconditionally. A recorder is used by one goroutine.
type recorder struct {
	group string
	base  time.Time
	spans []span
	open  []int
}

// tracer owns every recorder of a traced run.
type tracer struct {
	base time.Time
	recs []*recorder
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) recorder(group string) *recorder {
	r := &recorder{group: group, base: t.base}
	t.recs = append(t.recs, r)
	return r
}

// reserve makes room for n more spans, so recording them does not
// allocate inside a window whose allocations are being counted.
func (r *recorder) reserve(n int) {
	if r != nil {
		r.spans = slices.Grow(r.spans, n)
	}
}

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if k := len(r.open); k > 0 {
		parent = r.open[k-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Group: r.group, Name: name, Start: int64(time.Since(r.base))})
	r.open = append(r.open, id)
	return id
}

// end closes span id, covering n calls.
func (r *recorder) end(id, n int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.base))
	r.spans[id].N = n
	r.open = r.open[:len(r.open)-1]
}

// layerTotal is the aggregate of every span of one name.
type layerTotal struct {
	selfNs int64
	n      int
	spans  int
}

// totals sums self time (duration minus the time its direct children
// cover) and call counts per span name over all recorders.
func (t *tracer) totals() map[string]layerTotal {
	out := map[string]layerTotal{}
	for _, r := range t.recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range r.spans {
			lt := out[s.Name]
			lt.selfNs += s.End - s.Start - child[i]
			lt.n += s.N
			lt.spans++
			out[s.Name] = lt
		}
	}
	return out
}

// write stores every span as one JSON line, renumbering IDs so they are
// unique across recorders.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, r := range t.recs {
		for _, s := range r.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		base += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chunkSource wraps a reference source so its cost is timed per chunk:
// it prefetches chunkRecords records inside one span and serves them
// from the buffer.
type chunkSource struct {
	src  memtrace.Source
	rec  *recorder
	name string
	buf  []memtrace.Record
	pos  int
}

func (c *chunkSource) Next() (memtrace.Record, bool) {
	if c.pos == len(c.buf) {
		sp := c.rec.begin(c.name)
		c.buf, c.pos = c.buf[:0], 0
		for len(c.buf) < chunkRecords {
			r, ok := c.src.Next()
			if !ok {
				break
			}
			c.buf = append(c.buf, r)
		}
		c.rec.end(sp, len(c.buf))
		if len(c.buf) == 0 {
			return memtrace.Record{}, false
		}
	}
	r := c.buf[c.pos]
	c.pos++
	return r, true
}

// decision is one resize decision a policy returned.
type decision struct {
	frac float64
	fire bool
}

// tracedPolicy times every Decide of a resize policy and records its
// answers, so a replay can apply the same resizes.
type tracedPolicy struct {
	inner     system.ResizePolicy
	rec       *recorder
	decisions []decision
}

func (p *tracedPolicy) Period() int { return p.inner.Period() }

func (p *tracedPolicy) Decide(epoch int, t system.Telemetry) (float64, bool) {
	sp := p.rec.begin("control.Decide")
	frac, fire := p.inner.Decide(epoch, t)
	p.rec.end(sp, 1)
	p.decisions = append(p.decisions, decision{frac, fire})
	return frac, fire
}
