package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
	"fpcache/internal/sweep"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// runTraced is the --trace 1 mode. It runs one untraced round and one
// traced round of the workload (the traced round must reproduce the
// untraced outputs), then replays the workload's reference stream
// through every layer's public functions one layer at a time. Every
// per-layer metric derives from span self times and counts; the span
// file is written to the output directory.
func (b *bench) runTraced(w io.Writer) (*report, error) {
	rep := newReport()
	tr := newTracer()
	if _, err := b.setup(tr.recorder("setup")); err != nil {
		return nil, err
	}

	t0 := time.Now()
	untraced := b.round(nil)
	wallA := time.Since(t0)
	recs := make([]*recorder, len(b.points))
	for i, p := range b.points {
		recs[i] = tr.recorder("point/" + p.label)
	}
	t1 := time.Now()
	traced := b.round(recs)
	wallB := time.Since(t1)
	// Round 1 is checked against round 0: the traced outputs must
	// reproduce the untraced ones.
	if err := b.check(rep, [][]pointOut{untraced, traced}); err != nil {
		return nil, err
	}

	var refs uint64
	var busy time.Duration
	for _, o := range untraced {
		refs += o.refs
		busy += o.dur
	}
	rpsA := float64(refs) / wallA.Seconds()
	rpsB := float64(refs) / wallB.Seconds()
	rep.set("bench.trace_overhead_frac", rpsA/rpsB-1, "ratio", 1)
	rep.set("sweep.busy_frac", busy.Seconds()/(float64(b.cfg.workers)*wallA.Seconds()), "ratio", len(untraced))
	simulatedLayers(rep, untraced)

	reqsPerTimedRef, err := b.replayLayers(tr, rep)
	if err != nil {
		return nil, err
	}
	tot := tr.totals()
	perCall := func(name string) float64 {
		lt := tot[name]
		if lt.n == 0 {
			return 0
		}
		return float64(lt.selfNs) / float64(lt.n)
	}
	rep.set("synth.ns_per_ref", perCall("synth.Generator.Next"), "ns", tot["synth.Generator.Next"].n)
	rep.set("system.build_design_ms", perCall("system.BuildDesign")/1e6, "ms", tot["system.BuildDesign"].n)
	rep.set("memtrace.encode_ns_per_ref", perCall("memtrace.WriterV2.Write"), "ns", tot["memtrace.WriterV2.Write"].n)
	rep.set("memtrace.decode_ns_per_ref", perCall("memtrace.FileReader.Next"), "ns", tot["memtrace.FileReader.Next"].n)
	for _, k := range allKinds {
		name := "dcache.Access/" + metricKind(k)
		rep.set("dcache.access_ns."+metricKind(k), perCall(name), "ns", tot[name].n)
	}
	var trackNs, trackN, funcNs, funcN int64
	for _, k := range b.ownKinds() {
		lt := tot["dram.Tracker.Access/"+metricKind(k)]
		trackNs, trackN = trackNs+lt.selfNs, trackN+int64(lt.n)
		lt = tot["system.RunFunctional/"+metricKind(k)]
		funcNs, funcN = funcNs+lt.selfNs, funcN+int64(lt.n)
	}
	rep.set("dram.tracker_ns_per_op", float64(trackNs)/float64(trackN), "ns", int(trackN))
	rep.set("system.functional_ns_per_ref", float64(funcNs)/float64(funcN), "ns", int(funcN))
	rep.set("dram.ctrl_ns_per_req", perCall("dram.Controller.Submit"), "ns", tot["dram.Controller.Submit"].n)
	rep.set("sim.ns_per_event", perCall("sim.Engine.Run"), "ns", tot["sim.Engine.Run"].n)
	rep.set("system.timing_ns_per_ref", perCall("system.RunTiming/replay"), "ns", tot["system.RunTiming/replay"].n)
	rep.set("system.warm_store_ms", perCall("system.WarmCache.Store")/1e6, "ms", tot["system.WarmCache.Store"].n)
	rep.set("system.warm_restore_ms", perCall("system.WarmCache.Load")/1e6, "ms", tot["system.WarmCache.Load"].n)
	rep.set("system.interval_merge_ms", float64(tot["system.MergeTiming"].selfNs)/1e6, "ms", tot["system.MergeTiming"].spans)
	rep.set("control.decide_ns_per_epoch", perCall("control.Decide"), "ns", tot["control.Decide"].n)
	// Timing glue: what a timed reference costs beyond its Access and
	// its share of controller work (demux, cores, dispatch, engine).
	rep.set("system.timing_self_ns_per_ref",
		perCall("system.RunTiming/replay")-perCall("dcache.Access/footprint")-reqsPerTimedRef*perCall("dram.Controller.Submit"),
		"ns", tot["system.RunTiming/replay"].n)

	for _, name := range sortedKeys(tot) {
		lt := tot[name]
		fmt.Fprintf(w, "layer %-36s self_ms=%12.3f calls=%10d spans=%7d\n", name, float64(lt.selfNs)/1e6, lt.n, lt.spans)
	}
	path := filepath.Join(b.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans: %s\n", path)
	return rep, nil
}

// simulatedLayers reports the simulated per-layer figures of the
// workload's own points: DRAM cache hit ratio, DRAM bursts per
// reference and row-buffer hit ratios.
func simulatedLayers(rep *report, outs []pointOut) {
	var ctr dcache.Counters
	var off, stk dram.Stats
	var refs uint64
	for _, o := range outs {
		switch {
		case o.fn != nil:
			ctr = ctr.Add(o.fn.Counters)
			off.Add(o.fn.OffChip)
			stk.Add(o.fn.Stacked)
			refs += o.fn.Refs
		case o.tm != nil:
			ctr = ctr.Add(o.tm.Counters)
			off.Add(o.tm.OffChip)
			stk.Add(o.tm.Stacked)
			refs += o.tm.Refs
		}
	}
	rep.set("dcache.hit_ratio", ctr.HitRatio(), "ratio", len(outs))
	rep.set("dram.reqs_per_ref", float64(off.Accesses()+stk.Accesses())/float64(refs), "count", len(outs))
	rep.set("dram.row_hit_ratio.stacked", stk.RowHitRatio(), "ratio", len(outs))
	rep.set("dram.row_hit_ratio.offchip", off.RowHitRatio(), "ratio", len(outs))
}

// corpus is the reference stream the layer replay runs: the
// workload's own records (a prefix of the trace for trace-intervals,
// one web-search point's stream otherwise).
type corpus struct {
	recs   []memtrace.Record
	warmup int
	prof   synth.Profile
}

// corpusMB is the paper-scale capacity the replayed designs run at.
const corpusMB = 256

func (b *bench) corpus(rec *recorder) (corpus, error) {
	profile, n, warmup := synth.WebSearch, b.sz.funcWarmup+b.sz.funcRefs, b.sz.funcWarmup
	switch b.cfg.workload {
	case wlTiming:
		n, warmup = b.sz.timingWarmup+b.sz.timingRefs, b.sz.timingWarmup
	case wlIntervals:
		profile, n, warmup = synth.DataServing, b.sz.traceRecords, b.sz.traceWarmup
	}
	n = min(n, b.sz.corpusMax)
	warmup = min(warmup, n/2)
	c := corpus{warmup: warmup}
	if b.cfg.workload == wlIntervals {
		fr, err := memtrace.NewFileReader(bytes.NewReader(b.trace))
		if err != nil {
			return c, err
		}
		c.recs = memtrace.Collect(fr, n)
		c.prof, err = synth.ByName(profile)
		return c, err
	}
	g, prof, err := generator(profile, b.cfg.seed)
	if err != nil {
		return c, err
	}
	c.prof = prof
	src := &chunkSource{src: g, rec: rec, name: "synth.Generator.Next"}
	c.recs = memtrace.Collect(src, n)
	return c, nil
}

// replayLayers runs the corpus through each layer in isolation:
// memtrace encode and decode; Access of every design kind (timed, and
// again capturing its DRAM operations); the functional trackers and
// RunFunctional; and, for the footprint design, RunTiming, a replay of
// its request stream through the DRAM controllers, an event-engine
// replay, and the checkpoint store / restore / interval merge path.
// Replays run on one goroutine (except the interval timing jobs) so
// allocation counts are the layer's own. It returns the DRAM requests
// per timed reference of the footprint timing replay.
func (b *bench) replayLayers(tr *tracer, rep *report) (float64, error) {
	rec := tr.recorder("replay")
	c, err := b.corpus(rec)
	if err != nil {
		return 0, err
	}
	if err := replayMemtrace(rec, rep, c); err != nil {
		return 0, err
	}
	var reqsPerTimedRef float64

	var accessMallocs uint64
	var accessRefs, ownOps, ownRefs int
	for _, k := range allKinds {
		spec := system.DesignSpec{Kind: k, PaperCapacityMB: corpusMB, Scale: scale}
		mk := metricKind(k)

		// The functional pipeline end to end; for the adaptive design
		// this also records the controller's decisions for the replays.
		d0, err := buildDesign(rec, spec)
		if err != nil {
			return 0, err
		}
		var ap *system.AdaptivePolicy
		var pol *tracedPolicy
		var rp system.ResizePolicy
		if k == kindMemcache {
			ap = system.NewAdaptivePolicy(adaptiveConfig())
			pol = &tracedPolicy{inner: ap, rec: rec}
			rp = pol
		}
		sp := rec.begin("system.RunFunctional/" + mk)
		fres, err := system.RunFunctionalResized(d0, memtrace.NewSlice(c.recs), c.warmup, len(c.recs)-c.warmup, rp)
		rec.end(sp, len(c.recs))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", k, err)
		}
		var decisions []decision
		if pol != nil {
			decisions = pol.decisions
			rep.set("control.moves", float64(ap.Controller().Moves()), "count", len(decisions))
		}

		d1, err := buildDesign(rec, spec)
		if err != nil {
			return 0, err
		}
		rec.reserve(len(c.recs)/chunkRecords + 1)
		mallocs, steadyRefs := replayAccess(d1, c, decisions, rec, "dcache.Access/"+mk, nil)
		accessMallocs += mallocs
		accessRefs += steadyRefs

		d2, err := buildDesign(rec, spec)
		if err != nil {
			return 0, err
		}
		var flat []dcache.Op
		offs := make([]int, 0, len(c.recs)+1)
		replayAccess(d2, c, decisions, nil, "", func(i int, ops []dcache.Op) {
			if len(offs) == i {
				offs = append(offs, len(flat))
			}
			flat = append(flat, ops...)
		})
		offs = append(offs, len(flat))
		if d1.Counters() != d0.Counters() || d2.Counters() != d0.Counters() {
			rep.fail("replay of %s diverged from RunFunctional: %+v vs %+v", k, d1.Counters(), d0.Counters())
		}
		if slices.Contains(b.ownKinds(), k) {
			ownOps += len(flat)
			ownRefs += len(c.recs)
		}
		replayTrackers(rec, "dram.Tracker.Access/"+mk, d2, flat)

		if k == kindFootprint {
			if reqsPerTimedRef, err = b.replayTiming(tr, rec, rep, c, spec, fres, flat, offs); err != nil {
				return 0, err
			}
		}
	}
	rep.set("dcache.access_allocs_per_ref", float64(accessMallocs)/float64(accessRefs), "count", accessRefs)
	rep.set("dcache.ops_per_ref", float64(ownOps)/float64(ownRefs), "count", ownRefs)
	return reqsPerTimedRef, nil
}

func buildDesign(rec *recorder, spec system.DesignSpec) (dcache.Design, error) {
	sp := rec.begin("system.BuildDesign")
	d, err := system.BuildDesign(spec)
	rec.end(sp, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Kind, err)
	}
	return d, nil
}

// replayAccess drives the corpus through d.Access in chunks, applying
// the recorded resize decisions at the same measured-reference epoch
// boundaries RunFunctionalResized uses. capture, when non-nil, sees
// every reference's operations (resize transitions included).
//
// It returns the heap allocations Access made in steady state — from
// the first chunk boundary after warmup to the end, resize transitions
// excluded — and how many references that window covers.
func replayAccess(d dcache.Design, c corpus, decisions []decision, rec *recorder, name string, capture func(i int, ops []dcache.Op)) (mallocs uint64, refs int) {
	rz, _ := d.(system.Resizable)
	period := adaptiveConfig().EpochRefs
	epoch := 0
	var resizeMallocs uint64
	var m0, m1, steady runtime.MemStats
	steadyAt := -1
	// Sized so no Access grows it: the replay's own buffer growth is
	// not the design's allocation.
	ops := make([]dcache.Op, 0, 256)
	for lo := 0; lo < len(c.recs); lo += chunkRecords {
		hi := min(len(c.recs), lo+chunkRecords)
		if steadyAt < 0 && lo >= c.warmup {
			steadyAt = lo
			runtime.ReadMemStats(&steady)
		}
		sp := rec.begin(name)
		for i := lo; i < hi; i++ {
			ops = d.Access(c.recs[i], ops).Ops
			if capture != nil {
				capture(i, ops)
			}
			if decisions != nil && rz != nil && i >= c.warmup && (i-c.warmup+1)%period == 0 {
				if epoch < len(decisions) && decisions[epoch].fire {
					runtime.ReadMemStats(&m0)
					ops = rz.Resize(decisions[epoch].frac, ops[:0])
					runtime.ReadMemStats(&m1)
					resizeMallocs += m1.Mallocs - m0.Mallocs
					if capture != nil {
						capture(i, ops)
					}
				}
				epoch++
			}
		}
		rec.end(sp, hi-lo)
	}
	if steadyAt < 0 {
		return 0, 0
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - steady.Mallocs - resizeMallocs, len(c.recs) - steadyAt
}

// replayTrackers accounts a captured operation stream in fresh
// functional DRAM trackers.
func replayTrackers(rec *recorder, name string, d dcache.Design, flat []dcache.Op) {
	offCfg, stkCfg := system.DRAMConfigsForDesign(d)
	offT, stkT := dram.NewTracker(offCfg), dram.NewTracker(stkCfg)
	for lo := 0; lo < len(flat); lo += chunkRecords {
		hi := min(len(flat), lo+chunkRecords)
		sp := rec.begin(name)
		for _, op := range flat[lo:hi] {
			t := stkT
			if op.Level == dcache.OffChip {
				t = offT
			}
			t.Access(op.Addr, op.Bytes, op.Write)
		}
		rec.end(sp, hi-lo)
	}
}

// replayMemtrace encodes the corpus as a v2 trace and decodes it back.
func replayMemtrace(rec *recorder, rep *report, c corpus) error {
	var buf bytes.Buffer
	tw := memtrace.NewWriterV2(&buf)
	for lo := 0; lo < len(c.recs); lo += chunkRecords {
		hi := min(len(c.recs), lo+chunkRecords)
		sp := rec.begin("memtrace.WriterV2.Write")
		for _, r := range c.recs[lo:hi] {
			if err := tw.Write(r); err != nil {
				return err
			}
		}
		rec.end(sp, hi-lo)
	}
	if err := tw.Close(); err != nil {
		return err
	}
	rep.set("memtrace.bytes_per_ref", float64(buf.Len())/float64(len(c.recs)), "B", len(c.recs))
	fr, err := memtrace.NewFileReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	got := make([]memtrace.Record, len(c.recs))
	for lo := 0; lo < len(got); lo += chunkRecords {
		hi := min(len(got), lo+chunkRecords)
		sp := rec.begin("memtrace.FileReader.Next")
		for i := lo; i < hi; i++ {
			got[i], _ = fr.Next()
		}
		rec.end(sp, hi-lo)
	}
	for i := range got {
		if got[i] != c.recs[i] {
			rep.fail("memtrace round trip: record %d decoded as %+v, want %+v", i, got[i], c.recs[i])
			break
		}
	}
	return fr.Err()
}

// replayTiming measures the timing path on the corpus with the
// footprint design: RunTiming from a warmed design, the captured
// request stream through the DRAM controllers at the rate RunTiming
// observed, an event-engine replay of as many events, and the
// checkpoint path (store, restore, per-interval timing, merge).
// fres is the functional result over the same records; flat/offs the
// captured operations and their per-reference offsets. It returns the
// DRAM requests per timed reference.
func (b *bench) replayTiming(tr *tracer, rec *recorder, rep *report, c corpus, spec system.DesignSpec,
	fres system.FunctionalResult, flat []dcache.Op, offs []int) (float64, error) {
	cfg := system.TimingConfig{Cores: c.prof.Cores, MLP: c.prof.MLP}
	timedRefs := len(c.recs) - c.warmup
	d, err := buildDesign(rec, spec)
	if err != nil {
		return 0, err
	}
	var scratch []dcache.Op
	for _, r := range c.recs[:c.warmup] {
		scratch = d.Access(r, scratch).Ops
	}
	cfg.MaxRefs = timedRefs
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := rec.begin("system.RunTiming/replay")
	tres, err := system.RunTiming(d, memtrace.NewSlice(c.recs[c.warmup:]), cfg)
	rec.end(sp, timedRefs)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, err
	}
	if tres.Counters != fres.Counters || tres.Instructions != fres.Instructions {
		rep.fail("replay timing counters %+v differ from RunFunctional %+v", tres.Counters, fres.Counters)
	}
	rep.set("system.timing_allocs_per_ref", float64(m1.Mallocs-m0.Mallocs)/float64(timedRefs), "count", timedRefs)
	rep.set("system.queue_high_water", float64(tres.QueueHighWater), "count", 1)
	rep.set("cpu.stall_cycles_per_ref", float64(tres.StallCycles)/float64(tres.Refs), "cycles", int(tres.Refs))

	// The request stream of the timed references, arriving uniformly
	// at the rate the timing run observed.
	reqOps := flat[offs[c.warmup]:]
	reqs := make([]dram.Request, len(reqOps))
	for j, op := range reqOps {
		reqs[j] = dram.Request{Addr: op.Addr, Bytes: op.Bytes, Write: op.Write}
	}
	offCfg, stkCfg := system.DRAMConfigsForDesign(d)
	eng := &sim.Engine{}
	offC, stkC := dram.NewController(eng, offCfg), dram.NewController(eng, stkCfg)
	cycles := tres.Cycles
	var pending uint64
	rec.reserve(len(reqs)/chunkRecords + 2)
	runtime.ReadMemStats(&m0)
	for lo := 0; lo < len(reqs); lo += chunkRecords {
		hi := min(len(reqs), lo+chunkRecords)
		sp := rec.begin("dram.Controller.Submit")
		for j := lo; j < hi; j++ {
			eng.RunUntil(sim.Cycle(uint64(j) * cycles / uint64(len(reqs))))
			ctrl := stkC
			if reqOps[j].Level == dcache.OffChip {
				ctrl = offC
			}
			ctrl.Submit(&reqs[j])
			pending += uint64(eng.Pending())
		}
		rec.end(sp, hi-lo)
	}
	sp = rec.begin("dram.Controller.Submit")
	eng.Run(nil)
	rec.end(sp, 0)
	runtime.ReadMemStats(&m1)
	rep.set("dram.ctrl_allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(len(reqs)), "count", len(reqs))

	// The engine alone: as many events as the controller replay ran,
	// spread over as many concurrent chains as it kept pending.
	events := eng.Executed
	chains := max(1, int(pending/uint64(max(1, len(reqs)))))
	delta := sim.Cycle(max(1, cycles*uint64(chains)/max(1, events)))
	e2 := &sim.Engine{}
	left := events
	fns := make([]func(), chains)
	for i := range fns {
		fns[i] = func() {
			if left > 0 {
				left--
				e2.After(delta, fns[i])
			}
		}
		e2.After(sim.Cycle(i), fns[i])
	}
	sp = rec.begin("sim.Engine.Run")
	e2.Run(nil)
	rec.end(sp, int(e2.Executed))

	return float64(len(reqs)) / float64(timedRefs), b.replayIntervals(tr, rec, rep, c, spec, cfg, tres)
}

// replayIntervals walks a functional state along the corpus, storing a
// checkpoint at each interval boundary, then restores every checkpoint
// and times its interval concurrently, and merges the results. The
// merge must reproduce the serial timing run's counters.
func (b *bench) replayIntervals(tr *tracer, rec *recorder, rep *report, c corpus, spec system.DesignSpec,
	cfg system.TimingConfig, serial system.TimingResult) error {
	dir, err := os.MkdirTemp(b.tmp, "replay-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := system.NewWarmCache(dir)
	if err != nil {
		return err
	}
	d, err := buildDesign(rec, spec)
	if err != nil {
		return err
	}
	s := system.NewSimState(d)
	if err := s.Warm(memtrace.NewSlice(c.recs[:c.warmup]), c.warmup); err != nil {
		return err
	}
	k := b.sz.intervals
	measured := len(c.recs) - c.warmup
	bounds := make([]int, k+1)
	keys := make([]system.WarmKey, k)
	for i := range bounds {
		bounds[i] = c.warmup + measured*i/k
	}
	for i := range keys {
		keys[i] = system.WarmKey{
			Workload: "perfbench-replay", Seed: b.cfg.seed, Scale: scale, WarmupRefs: c.warmup,
			TraceID: b.cfg.workload, AtRecord: uint64(bounds[i]), Spec: spec,
		}
		if i > 0 {
			if err := s.Warm(memtrace.NewSlice(c.recs[bounds[i-1]:bounds[i]]), bounds[i]-bounds[i-1]); err != nil {
				return err
			}
		}
		sp := rec.begin("system.WarmCache.Store")
		err := cache.Store(keys[i], s)
		rec.end(sp, 1)
		if err != nil {
			return err
		}
	}
	var snap bytes.Buffer
	if err := s.Snapshot(&snap, keys[k-1].Meta()); err != nil {
		return err
	}
	rep.set("system.snapshot_kb", float64(snap.Len())/1024, "KB", 1)

	recs := make([]*recorder, k)
	for i := range recs {
		recs[i] = tr.recorder(fmt.Sprintf("replay/interval-%d", i))
	}
	durs := make([]time.Duration, k)
	t0 := time.Now()
	parts, reports := sweep.MapTolerant(b.cfg.workers, k, sweep.Policy{}, func(i int) (system.TimingResult, error) {
		start := time.Now()
		defer func() { durs[i] = time.Since(start) }()
		r := recs[i]
		d, err := buildDesign(r, spec)
		if err != nil {
			return system.TimingResult{}, err
		}
		st := system.NewSimState(d)
		sp := r.begin("system.WarmCache.Load")
		hit, _, err := cache.Load(keys[i], st)
		r.end(sp, 1)
		if err != nil || !hit {
			return system.TimingResult{}, fmt.Errorf("interval %d checkpoint did not restore: hit=%v err=%v", i, hit, err)
		}
		icfg := cfg
		icfg.MaxRefs = bounds[i+1] - bounds[i]
		sp = r.begin("system.RunTiming/interval")
		res, err := system.RunTiming(st.Design(), memtrace.NewSlice(c.recs[bounds[i]:bounds[i+1]]), icfg)
		r.end(sp, icfg.MaxRefs)
		return res, err
	})
	wall := time.Since(t0)
	for _, r := range reports {
		if r.Err != nil {
			return r.Err
		}
	}
	if b.cfg.workload == wlIntervals {
		// trace-intervals runs its passes one after another, so its
		// worker occupancy is that of the interval jobs.
		var busy time.Duration
		for _, d := range durs {
			busy += d
		}
		rep.set("sweep.busy_frac", busy.Seconds()/(float64(b.cfg.workers)*wall.Seconds()), "ratio", k)
	}
	sp := rec.begin("system.MergeTiming")
	merged, err := system.MergeTiming(parts)
	rec.end(sp, len(parts))
	if err != nil {
		return err
	}
	if merged.Counters != serial.Counters || merged.Instructions != serial.Instructions {
		rep.fail("replayed interval merge counters %+v differ from the serial timing run %+v", merged.Counters, serial.Counters)
	}
	return nil
}
