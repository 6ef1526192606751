package system

import (
	"fpcache/internal/cpu"
	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/energy"
	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
	"fpcache/internal/stats"
)

// TimingConfig parametrizes an event-driven pod simulation.
type TimingConfig struct {
	Cores int
	// MLP is the per-core outstanding-read budget.
	MLP int
	// L2Cycles is the L2 hit latency paid by every record before the
	// DRAM cache tag lookup (Table 3: 13 cycles).
	L2Cycles int
	// WarmupRefs records warm the state (SimState.Warm) before timed
	// simulation starts, mirroring the paper's warmed checkpoints
	// (§5.4). RunTiming reads it; SimState.MeasureTiming starts from
	// the state it is given and ignores it.
	WarmupRefs int
	// MaxRefs bounds the timed trace length; 0 takes the default
	// (250_000, matching experiments.Options.TimingRefs at its
	// defaults) rather than simulating nothing.
	MaxRefs int
	// OffChip / Stacked override the per-design DRAM configs when
	// non-nil (used by the Figure 1 opportunity study).
	OffChip, Stacked *dram.Config
	// Resize decides run-time partition resizes (a static *ResizePlan
	// or the adaptive AdaptivePolicy); RunTiming installs it on its
	// state (SimState.SetPolicy), and MeasureTiming drives the state's
	// policy instead. The state's one epoch driver runs at demux drain
	// time in trace order — the boundaries, telemetry and decisions of
	// RunFunctionalResized — so counters stay byte-identical to a
	// functional run; the transition's DRAM operations dispatch into
	// the controllers as background traffic at the cycle the boundary
	// reference is drained.
	Resize ResizePolicy
}

// TimingResult summarizes a timing run.
type TimingResult struct {
	Design       string
	Refs         uint64
	Instructions uint64
	Cycles       uint64
	Counters     dcache.Counters
	OffChip      dram.Stats
	Stacked      dram.Stats
	// AvgReadLatency is the mean latency of read records from issue
	// to completion, in CPU cycles.
	AvgReadLatency float64
	// ReadLatency is the full read-record latency distribution (issue
	// to completion, CPU cycles) behind the percentile fields.
	ReadLatency *stats.Histogram `json:"-"`
	// ReadLatencyP50/P90/P99 are percentiles of the read-record
	// latency distribution, interpolated from ReadLatency.
	ReadLatencyP50 float64
	ReadLatencyP90 float64
	ReadLatencyP99 float64
	// StallCycles sums per-core full-window stalls.
	StallCycles uint64
	// QueueHighWater is the run's high-water mark of records buffered
	// across the demux's per-core queues. Pinning functional state
	// transitions to trace order means a core-skewed trace buffers the
	// skew (each queued record holding its ops); this reports that
	// memory cost instead of leaving it unmeasured.
	QueueHighWater uint64
	// Partition carries partition statistics when the design
	// partitions its stacked capacity, nil otherwise.
	Partition *dcache.PartitionStats
}

// AggIPC is the paper's throughput metric (§5.4): aggregate committed
// instructions over total cycles.
func (r TimingResult) AggIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// OffChipEnergyPerInstr returns the off-chip dynamic energy per
// instruction (Figure 10's metric).
func (r TimingResult) OffChipEnergyPerInstr() energy.Breakdown {
	return energy.OffChip().Of(r.OffChip).PerInstruction(r.Instructions)
}

// StackedEnergyPerInstr returns the stacked dynamic energy per
// instruction (Figure 11's metric).
func (r TimingResult) StackedEnergyPerInstr() energy.Breakdown {
	return energy.Stacked().Of(r.Stacked).PerInstruction(r.Instructions)
}

// timedRec is one queued record: the trace record, its outcome's
// SRAM lead time, and how many of its ops follow in the core's op
// ring.
type timedRec struct {
	rec       memtrace.Record
	tagCycles int
	nOps      int
}

// coreQueue buffers one core's drained records until the core pulls
// them. A queued outcome's ops wait in the op ring, in record order;
// the core's pull moves them into a flight.
type coreQueue struct {
	recs ring[timedRec]
	ops  ring[dcache.Op]
}

// ring is a growable FIFO over a power-of-two buffer. Popped slots are
// cleared, and a queue that stays within its high water never
// reallocates.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// demux fans one interleaved trace out to per-core queues, performing
// the design's functional access in trace order as records are
// drained from the source. Pinning functional state transitions to
// trace order — rather than the timing-dependent order in which cores
// issue — makes hit/miss counters and traffic independent of
// controller scheduling: a controller rework cannot perturb
// functional results (the scheduling-parity regression test), and the
// counters match RunFunctional byte for byte.
//
// The cost of the decoupling is that queued records hold their ops: a
// trace whose records skew heavily toward one core makes the other
// cores' pulls drain (and functionally evaluate) the remainder of the
// trace up front, buffering every queued record's ops. Synthetic
// workloads interleave cores evenly, but cores progress at different
// rates, so their queues drift apart slowly (about 10k records after
// 160k web-search references); a pathologically skewed replayed trace
// costs memory proportional to the skew, never correctness. The
// queued/highWater counters measure that cost per run
// (TimingResult.QueueHighWater).
type demux struct {
	src    memtrace.Source
	design dcache.Design
	p      *pipeline
	queues []coreQueue
	left   int
	done   bool

	// queued is the current total of buffered records across queues;
	// highWater its run maximum.
	queued    int
	highWater int
	// validated counts the outcome DAGs checked so far; the first
	// validateOutcomes outcomes per run are verified structurally so a
	// malformed design fails its run instead of deadlocking dispatch.
	validated int
	// err is the first validation failure; once set, the demux stops
	// producing records and the run returns the error.
	err error

	// ep is the state's resize-epoch driver, counting drained
	// references; a firing decision's transition ops dispatch at once
	// as background traffic.
	ep epochs

	// scratch is the Access scratch buffer; each outcome is copied out
	// of it into its core's queue, because timed outcomes outlive the
	// next Access.
	scratch []dcache.Op
}

// pull returns the next record for the given core, with the flight
// carrying its precomputed outcome.
func (d *demux) pull(core int) (memtrace.Record, *flight, bool) {
	for {
		if d.err != nil {
			return memtrace.Record{}, nil, false
		}
		if q := &d.queues[core]; q.recs.n > 0 {
			tr := q.recs.pop()
			fl := d.p.acquire(tr.nOps)
			for i := range fl.ops {
				fl.ops[i] = q.ops.pop()
			}
			fl.tagCycles = tr.tagCycles
			d.queued--
			return tr.rec, fl, true
		}
		if d.done || d.left <= 0 {
			return memtrace.Record{}, nil, false
		}
		rec, ok := d.src.Next()
		if !ok {
			d.done = true
			continue
		}
		d.left--
		res := d.design.Access(rec, d.scratch)
		if d.validated < validateOutcomes {
			d.validated++
			if err := validateOps(d.design, res.Ops, "outcome"); err != nil {
				d.err = err
				d.done = true
				return memtrace.Record{}, nil, false
			}
		}
		d.scratch = res.Ops
		q := &d.queues[int(rec.Core)%len(d.queues)]
		q.recs.push(timedRec{rec: rec, tagCycles: res.TagCycles, nOps: len(res.Ops)})
		for _, op := range res.Ops {
			q.ops.push(op)
		}
		if d.queued++; d.queued > d.highWater {
			d.highWater = d.queued
		}
		if !d.ep.tick() {
			continue
		}
		// The reference's ops are already copied out of scratch, so the
		// resize transition can reuse it.
		ops, err := d.ep.transition(d.scratch)
		d.scratch = ops
		if err != nil {
			d.err = err
			d.done = true
			return memtrace.Record{}, nil, false
		}
		if len(ops) > 0 {
			// Resize traffic is pure background: nothing gates on it,
			// and the flight recycles when the last op lands.
			rz := d.p.acquire(len(ops))
			copy(rz.ops, ops)
			rz.read, rz.done = false, noWaiter
			rz.dispatch()
		}
	}
}

// validateOutcomes is how many leading outcome DAGs a timing run
// structurally validates: enough to catch a systematically malformed
// design (miss, hit, evict, and bypass paths all appear within the
// first few dozen references of every workload) without taxing the
// steady-state hot path.
const validateOutcomes = 64

// pipeline is the dispatch context one timing run shares across its
// flights: the engine, both controllers, the free list of flights,
// and the read-record latency accumulators. The event loop is
// single-threaded, so none of it needs locking.
type pipeline struct {
	eng        *sim.Engine
	offC, stkC *dram.Controller
	free       []*flight

	readLat              *stats.Histogram
	readLatSum, readLatN uint64
}

// flight tracks one outcome's operation DAG through the DRAM
// controllers. Ops with no dependency submit when the flight
// dispatches, each dependent submits when its parent completes, done
// fires when every critical op has completed (right after the root
// submissions if there are none), and the flight returns to the free
// list when every op has completed. Dependents are found by scanning
// ops, which keeps the tracker free of per-outcome bookkeeping
// (outcome DAGs are at most a few dozen ops deep).
//
// Flights are pooled and every callback they hand out is bound once,
// when the flight or request record is created, so a steady-state
// dispatch allocates nothing.
type flight struct {
	p   *pipeline
	ops []dcache.Op
	// reqs[i] is ops[i]'s DRAM request record, reused across the
	// flight's incarnations.
	reqs      []opReq
	tagCycles int

	critLeft, allLeft int
	// read flights record issue-to-completion latency when done fires.
	read     bool
	issuedAt sim.Cycle
	done     func()

	// dispatchFn is fl.dispatch, bound once.
	dispatchFn func()
}

// opReq is one op's DRAM request, with Done bound to complete.
type opReq struct {
	dram.Request
	fl *flight
	op int
}

// noWaiter is the completion callback of flights nothing waits on.
func noWaiter() {}

// acquire takes a flight from the free list (or allocates one) with
// room for n ops. Buffers are sized to the largest outcome the flight
// has carried, never padded.
func (p *pipeline) acquire(n int) *flight {
	var fl *flight
	if k := len(p.free); k > 0 {
		fl = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	} else {
		fl = &flight{p: p}
		fl.dispatchFn = fl.dispatch
	}
	if cap(fl.ops) < n {
		fl.ops = make([]dcache.Op, n)
		fl.reqs = make([]opReq, n)
		for i := range fl.reqs {
			r := &fl.reqs[i]
			r.fl, r.op = fl, i
			r.Done = r.complete
		}
	}
	fl.ops = fl.ops[:n]
	return fl
}

// dispatch submits the flight's root ops; it runs once the outcome's
// SRAM lead time has elapsed (resize transitions dispatch at once).
//
//fplint:hotpath
func (fl *flight) dispatch() {
	fl.critLeft, fl.allLeft = 0, len(fl.ops)
	for i := range fl.ops {
		if fl.ops[i].Critical {
			fl.critLeft++
		}
	}
	for i := range fl.ops {
		if fl.ops[i].DependsOn == dcache.NoDep {
			fl.submit(i)
		}
	}
	// Completions are scheduled events, never synchronous with
	// Submit, so no op has completed yet: nothing gates a flight
	// without critical ops (posted writes), which finishes now and
	// drains in the background.
	if fl.critLeft == 0 {
		fl.finish()
	}
	if fl.allLeft == 0 {
		fl.p.release(fl)
	}
}

// submit issues op i to its controller.
func (fl *flight) submit(i int) {
	op := &fl.ops[i]
	r := &fl.reqs[i]
	r.Addr, r.Bytes, r.Write = op.Addr, op.Bytes, op.Write
	ctrl := fl.p.stkC
	if op.Level == dcache.OffChip {
		ctrl = fl.p.offC
	}
	ctrl.Submit(&r.Request)
}

// complete is op r.op's DRAM completion: it may finish the flight,
// issues the op's dependents, and releases the flight after its last
// op.
//
//fplint:hotpath
func (r *opReq) complete(sim.Cycle) {
	fl := r.fl
	if fl.ops[r.op].Critical {
		fl.critLeft--
		if fl.critLeft == 0 {
			fl.finish()
		}
	}
	for j := range fl.ops {
		if fl.ops[j].DependsOn == r.op {
			fl.submit(j)
		}
	}
	fl.allLeft--
	if fl.allLeft == 0 {
		fl.p.release(fl)
	}
}

// finish signals the flight's waiter, recording read latency.
func (fl *flight) finish() {
	if fl.read {
		p := fl.p
		lat := uint64(p.eng.Now() - fl.issuedAt)
		p.readLatSum += lat
		p.readLatN++
		p.readLat.Add(int64(lat))
	}
	fl.done()
}

// release returns a completed flight to the free list.
func (p *pipeline) release(fl *flight) {
	fl.done = nil
	p.free = append(p.free, fl)
}

// RunTiming executes an event-driven simulation of the pod: cores
// with bounded MLP issue records through the design into the two DRAM
// controllers; critical operations gate request completion while
// fills and evictions consume bandwidth in the background. It is
// NewSimState, SetPolicy(cfg.Resize), Warm(cfg.WarmupRefs) and
// MeasureTiming — the functional run's warmup, so one warm state
// (and one snapshot of it) serves both simulation modes.
func RunTiming(design dcache.Design, src memtrace.Source, cfg TimingConfig) (TimingResult, error) {
	s := NewSimState(design)
	s.SetPolicy(cfg.Resize)
	if err := s.Warm(src, cfg.WarmupRefs); err != nil {
		return TimingResult{Design: design.Name()}, err
	}
	return s.MeasureTiming(src, cfg, 0)
}

// MeasureTiming is the timing twin of MeasureFrom: it times up to
// cfg.MaxRefs records from the current state, which is already
// measuredBefore references into its measurement phase, driving the
// installed resize policy (cfg.WarmupRefs and cfg.Resize are not
// read). The design's functional transitions happen in trace order
// (at demux drain time), so hit/miss counters and traffic are
// identical to a MeasureFrom over the same records and invariant
// under controller scheduling changes; timing only decides *when* the
// resulting DRAM operations happen. The functional trackers are not
// updated: the controllers account the timed traffic instead.
//
// The returned error is a typed fault (fault.ErrInvalidOps) when the
// design emits a malformed operation list; the demux stops producing
// records, outstanding traffic drains, and the partial result
// accompanies the error for diagnostics only.
func (s *SimState) MeasureTiming(src memtrace.Source, cfg TimingConfig, measuredBefore uint64) (TimingResult, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.MLP <= 0 {
		cfg.MLP = 2
	}
	if cfg.L2Cycles <= 0 {
		cfg.L2Cycles = 13
	}
	if cfg.MaxRefs <= 0 {
		cfg.MaxRefs = 250_000
	}
	design := s.design
	offCfg, stkCfg := DRAMConfigsForDesign(design)
	if cfg.OffChip != nil {
		offCfg = *cfg.OffChip
	}
	if cfg.Stacked != nil {
		stkCfg = *cfg.Stacked
	}
	ctr0 := design.Counters()

	eng := &sim.Engine{}
	p := &pipeline{
		eng:     eng,
		offC:    dram.NewController(eng, offCfg),
		stkC:    dram.NewController(eng, stkCfg),
		readLat: stats.NewHistogram(stats.LatencyBounds()...),
	}
	dm := &demux{
		src:     src,
		design:  design,
		p:       p,
		queues:  make([]coreQueue, cfg.Cores),
		left:    cfg.MaxRefs,
		ep:      s.epochs(measuredBefore),
		scratch: s.ops,
	}
	part := partitionExtra(design)
	var pt0 dcache.PartitionStats
	if part != nil {
		pt0 = part()
	}

	res := TimingResult{Design: design.Name(), ReadLatency: p.readLat}

	// The outcome's flight travels from pull to issue as the core's
	// record payload, so the record/ops association is structural.
	// SRAM latencies (L2 probe + cache metadata) precede its DRAM
	// operations.
	issue := func(rec memtrace.Record, fl *flight, done func()) {
		res.Refs++
		fl.read, fl.issuedAt, fl.done = !rec.Write, eng.Now(), done
		eng.After(sim.Cycle(cfg.L2Cycles+fl.tagCycles), fl.dispatchFn)
	}

	cores := make([]*cpu.Core[*flight], cfg.Cores)
	for i := range cores {
		id := i
		pull := func() (memtrace.Record, *flight, bool) { return dm.pull(id) }
		cores[i] = cpu.New(id, cfg.MLP, eng, pull, issue)
		cores[i].Start()
	}

	eng.Run(nil)

	for _, c := range cores {
		res.Instructions += c.Instructions
		res.StallCycles += c.StallCycles
	}
	s.ops = dm.scratch
	res.Cycles = uint64(eng.Now())
	res.QueueHighWater = uint64(dm.highWater)
	res.Counters = design.Counters().Sub(ctr0)
	res.OffChip = p.offC.Stats
	res.Stacked = p.stkC.Stats
	if part != nil {
		s := part().Sub(pt0)
		res.Partition = &s
	}
	if p.readLatN > 0 {
		res.AvgReadLatency = float64(p.readLatSum) / float64(p.readLatN)
		res.ReadLatencyP50 = res.ReadLatency.Percentile(0.50)
		res.ReadLatencyP90 = res.ReadLatency.Percentile(0.90)
		res.ReadLatencyP99 = res.ReadLatency.Percentile(0.99)
	}
	return res, dm.err
}
