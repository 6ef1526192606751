package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"fpcache/internal/control"
	"fpcache/internal/memtrace"
	"fpcache/internal/sweep"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// defaultSeed is the seed whose simulated outputs are pinned in
// expected/*.json.
const defaultSeed = 1

// scale is the capacity scale factor every point runs at (the
// experiment harness default: 1/16 of paper scale).
const scale = 1.0 / 16

// setupReps is how many times a run repeats its set-up; setup_s is
// the median.
const setupReps = 5

// Workload names.
const (
	wlSweep     = "functional-sweep"
	wlTiming    = "timing"
	wlIntervals = "trace-intervals"
)

var workloadNames = []string{wlSweep, wlTiming, wlIntervals}

// Design kinds the benchmark measures. kindMemcache runs under the
// adaptive partition controller.
const (
	kindBlock     = "block"
	kindPage      = "page"
	kindFootprint = "footprint"
	kindBanshee   = "footprint+banshee"
	kindMemcache  = "footprint+memcache:50"
)

var allKinds = []string{kindBlock, kindPage, kindFootprint, kindBanshee, kindMemcache}

// metricKind names a design kind inside a metric name.
func metricKind(kind string) string {
	return map[string]string{
		kindBlock: "block", kindPage: "page", kindFootprint: "footprint",
		kindBanshee: "footprint_banshee", kindMemcache: "footprint_memcache50",
	}[kind]
}

// adaptiveConfig is the controller the memcache points run under:
// 10k-reference epochs, one cooldown epoch, a forced reprobe after 10
// held epochs, starting from the design's 50% split.
func adaptiveConfig() control.Config {
	return control.Config{EpochRefs: 10_000, CooldownEpochs: 1, HoldEpochs: 10, InitialFraction: 0.5}
}

// sizes are the run lengths of one profile.
type sizes struct {
	funcWarmup, funcRefs      int
	timingWarmup, timingRefs  int
	traceRecords, traceWarmup int
	intervals                 int
	// corpusMax caps the reference stream the traced run replays
	// layer by layer.
	corpusMax int
}

var (
	fullSizes  = sizes{100_000, 100_000, 100_000, 200_000, 1_200_000, 200_000, 8, 400_000}
	shortSizes = sizes{4_000, 4_000, 4_000, 8_000, 60_000, 10_000, 8, 20_000}
)

// mode is how a point simulates.
type mode int

const (
	functional mode = iota
	timed
	intervalPass
)

// point is one simulation point of a workload.
type point struct {
	label    string
	profile  string
	kind     string
	mb       int
	mode     mode
	adaptive bool
}

func (p point) spec() system.DesignSpec {
	return system.DesignSpec{Kind: p.kind, PaperCapacityMB: p.mb, Scale: scale}
}

// pointOut is what one point produced.
type pointOut struct {
	// refs counts simulated references, warmup included.
	refs uint64
	dur  time.Duration
	// out is the canonical JSON of the simulated output: what the
	// output checks compare.
	out []byte
	fn  *system.FunctionalResult
	tm  *system.TimingResult
	// restored/stored count checkpoint traffic of an interval pass.
	restored, stored int
	err              error
}

// bench holds one invocation's workload state.
type bench struct {
	cfg    config
	sz     sizes
	points []point
	// trace is the trace-intervals workload's encoded v2 trace.
	trace []byte
	// tmp is the run's scratch directory (warm-state caches).
	tmp string
}

func newBench(cfg config) (*bench, error) {
	b := &bench{cfg: cfg, sz: fullSizes}
	if cfg.short {
		b.sz = shortSizes
	}
	switch cfg.workload {
	case wlSweep:
		for _, wl := range synth.Names() {
			for _, mb := range []int{64, 256, 512} {
				for _, k := range allKinds {
					b.points = append(b.points, point{
						label: fmt.Sprintf("%s/%s/%d", wl, k, mb), profile: wl, kind: k, mb: mb,
						mode: functional, adaptive: k == kindMemcache,
					})
				}
			}
		}
	case wlTiming:
		for _, wl := range []string{synth.WebSearch, synth.MapReduce} {
			for _, k := range []string{kindFootprint, kindPage, kindBlock} {
				b.points = append(b.points, point{
					label: fmt.Sprintf("%s/%s/256", wl, k), profile: wl, kind: k, mb: 256, mode: timed,
				})
			}
		}
	case wlIntervals:
		for _, pass := range []string{"cold", "warm"} {
			b.points = append(b.points, point{
				label: pass, profile: synth.DataServing, kind: kindFootprint, mb: 256, mode: intervalPass,
			})
		}
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	b.tmp = tmp
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.tmp) }

// ownKinds lists the design kinds the workload itself runs.
func (b *bench) ownKinds() []string {
	var ks []string
	for _, p := range b.points {
		if !slices.Contains(ks, p.kind) {
			ks = append(ks, p.kind)
		}
	}
	return ks
}

func generator(profile string, seed int64) (*synth.Generator, synth.Profile, error) {
	prof, err := synth.ByName(profile)
	if err != nil {
		return nil, prof, err
	}
	g, err := synth.NewGenerator(prof, seed, scale)
	return g, prof, err
}

// setup does everything a run does before its first simulated
// reference: it constructs every generator and design of one round
// (discarding them; each point builds its own), and for
// trace-intervals generates, encodes and verifies the trace. rec, when
// non-nil, records spans around each layer call.
func (b *bench) setup(rec *recorder) (time.Duration, error) {
	t0 := time.Now()
	if b.cfg.workload == wlIntervals {
		tr, err := b.generateTrace(rec)
		if err != nil {
			return 0, err
		}
		b.trace = tr
	}
	for _, p := range b.points {
		if p.mode != intervalPass {
			sp := rec.begin("synth.NewGenerator")
			_, _, err := generator(p.profile, b.cfg.seed)
			rec.end(sp, 1)
			if err != nil {
				return 0, err
			}
		}
		sp := rec.begin("system.BuildDesign")
		_, err := system.BuildDesign(p.spec())
		rec.end(sp, 1)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.label, err)
		}
		if p.adaptive {
			system.NewAdaptivePolicy(adaptiveConfig())
		}
	}
	return time.Since(t0), nil
}

// generateTrace writes the trace-intervals workload's data-serving
// trace in the v2 format and verifies it.
func (b *bench) generateTrace(rec *recorder) ([]byte, error) {
	g, _, err := generator(synth.DataServing, b.cfg.seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw := memtrace.NewWriterV2(&buf)
	recs := make([]memtrace.Record, 0, chunkRecords)
	for left := b.sz.traceRecords; left > 0; {
		n := min(left, chunkRecords)
		sp := rec.begin("synth.Generator.Next")
		recs = recs[:0]
		for range n {
			r, _ := g.Next()
			recs = append(recs, r)
		}
		rec.end(sp, n)
		sp = rec.begin("memtrace.WriterV2.Write")
		for _, r := range recs {
			if err := tw.Write(r); err != nil {
				return nil, err
			}
		}
		rec.end(sp, n)
		left -= n
	}
	sp := rec.begin("memtrace.WriterV2.Close")
	err = tw.Close()
	rec.end(sp, 1)
	if err != nil {
		return nil, err
	}
	fr, err := memtrace.NewFileReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	sp = rec.begin("memtrace.FileReader.Verify")
	err = fr.Verify()
	rec.end(sp, b.sz.traceRecords)
	if err != nil {
		return nil, fmt.Errorf("generated trace fails verification: %w", err)
	}
	return buf.Bytes(), nil
}

// runPoint simulates one functional or timing point. rec, when
// non-nil, receives spans around the layer calls.
func (b *bench) runPoint(p point, rec *recorder) pointOut {
	t0 := time.Now()
	g, prof, err := generator(p.profile, b.cfg.seed)
	if err != nil {
		return pointOut{err: err}
	}
	sp := rec.begin("system.BuildDesign")
	d, err := system.BuildDesign(p.spec())
	rec.end(sp, 1)
	if err != nil {
		return pointOut{err: err}
	}
	var src memtrace.Source = g
	if rec != nil {
		src = &chunkSource{src: g, rec: rec, name: "synth.Generator.Next"}
	}
	var o pointOut
	switch p.mode {
	case functional:
		var pol system.ResizePolicy
		if p.adaptive {
			pol = system.NewAdaptivePolicy(adaptiveConfig())
			if rec != nil {
				pol = &tracedPolicy{inner: pol, rec: rec}
			}
		}
		sp := rec.begin("system.RunFunctional")
		res, err := system.RunFunctionalResized(d, src, b.sz.funcWarmup, b.sz.funcRefs, pol)
		rec.end(sp, b.sz.funcWarmup+b.sz.funcRefs)
		o = pointOut{refs: uint64(b.sz.funcWarmup + b.sz.funcRefs), fn: &res, err: err}
		if err == nil {
			o.out, o.err = json.Marshal(res)
		}
	case timed:
		sp := rec.begin("system.RunTiming")
		res, err := system.RunTiming(d, src, system.TimingConfig{
			Cores: prof.Cores, MLP: prof.MLP, WarmupRefs: b.sz.timingWarmup, MaxRefs: b.sz.timingRefs,
		})
		rec.end(sp, b.sz.timingWarmup+b.sz.timingRefs)
		o = pointOut{refs: uint64(b.sz.timingWarmup + b.sz.timingRefs), tm: &res, err: err}
		if err == nil {
			o.out, o.err = timingJSON(res)
		}
	}
	o.dur = time.Since(t0)
	return o
}

// timingJSON is the canonical form of a timing result: every field
// plus the aggregate IPC.
func timingJSON(r system.TimingResult) ([]byte, error) {
	return json.Marshal(struct {
		Result system.TimingResult
		IPC    float64
	}{r, r.AggIPC()})
}

// intervalOptions configures the trace-intervals passes.
func (b *bench) intervalOptions(cache *system.WarmCache) (system.IntervalOptions, error) {
	prof, err := synth.ByName(synth.DataServing)
	if err != nil {
		return system.IntervalOptions{}, err
	}
	return system.IntervalOptions{
		Spec:       b.points[0].spec(),
		Workload:   synth.DataServing,
		Seed:       b.cfg.seed,
		Scale:      scale,
		WarmupRefs: b.sz.traceWarmup,
		Intervals:  b.sz.intervals,
		Workers:    b.cfg.workers,
		Cache:      cache,
		Timing:     &system.TimingConfig{Cores: prof.Cores, MLP: prof.MLP},
	}, nil
}

// runIntervalPass runs RunIntervals over the trace once against cache.
func (b *bench) runIntervalPass(cache *system.WarmCache, rec *recorder) pointOut {
	t0 := time.Now()
	opt, err := b.intervalOptions(cache)
	if err != nil {
		return pointOut{err: err}
	}
	tr, err := memtrace.NewFileReader(bytes.NewReader(b.trace))
	if err != nil {
		return pointOut{err: err}
	}
	sp := rec.begin("system.RunIntervals")
	rep, err := system.RunIntervals(tr, opt)
	rec.end(sp, b.sz.traceRecords)
	if err != nil {
		return pointOut{err: err}
	}
	o := pointOut{refs: uint64(b.sz.traceRecords), tm: rep.Timing, restored: rep.Restored, stored: rep.Stored}
	o.out, o.err = timingJSON(*rep.Timing)
	o.dur = time.Since(t0)
	return o
}

// round runs every point of the workload once, closed loop on the
// configured workers. recs, when non-nil, holds one span recorder per
// point.
func (b *bench) round(recs []*recorder) []pointOut {
	rec := func(i int) *recorder {
		if recs == nil {
			return nil
		}
		return recs[i]
	}
	if b.cfg.workload == wlIntervals {
		// The warm pass restores what the cold pass stored, so the two
		// passes run in order; each spreads its intervals over the
		// workers inside RunIntervals.
		outs := make([]pointOut, len(b.points))
		var cache *system.WarmCache
		dir, err := os.MkdirTemp(b.tmp, "warmcache-")
		if err == nil {
			defer os.RemoveAll(dir)
			cache, err = system.NewWarmCache(dir)
		}
		for i := range b.points {
			if err != nil {
				outs[i] = pointOut{err: err}
				continue
			}
			outs[i] = b.runIntervalPass(cache, rec(i))
		}
		return outs
	}
	outs, reports := sweep.MapTolerant(b.cfg.workers, len(b.points), sweep.Policy{}, func(i int) (pointOut, error) {
		o := b.runPoint(b.points[i], rec(i))
		return o, o.err
	})
	for _, r := range reports {
		if r.Err != nil && outs[r.Index].err == nil {
			outs[r.Index].err = r.Err
		}
	}
	return outs
}

// runUntraced is the --trace 0 mode: set-up repeated setupReps times,
// then whole rounds until the time budget is spent, then the output
// checks and the end-to-end metrics.
func (b *bench) runUntraced(w io.Writer) (*report, error) {
	rep := newReport()
	setups := make([]float64, setupReps)
	for i := range setups {
		d, err := b.setup(nil)
		if err != nil {
			return nil, err
		}
		setups[i] = d.Seconds()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var rounds [][]pointOut
	var roundRates []float64
	for len(rounds) == 0 || time.Since(t0).Seconds() < b.cfg.seconds {
		r0, c0 := time.Now(), cpuSeconds()
		outs := b.round(nil)
		wall := time.Since(r0).Seconds()
		var refs uint64
		for _, o := range outs {
			refs += o.refs
		}
		rounds = append(rounds, outs)
		roundRates = append(roundRates, float64(refs)/wall)
		fmt.Fprintf(w, "round %d: %.3f s wall, %.3f s cpu, %.0f refs/s\n", len(rounds)-1, wall, cpuSeconds()-c0, roundRates[len(roundRates)-1])
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()

	var refs uint64
	var pointMs []float64
	for _, outs := range rounds {
		for _, o := range outs {
			refs += o.refs
			pointMs = append(pointMs, float64(o.dur)/float64(time.Millisecond))
		}
	}
	n := len(pointMs)
	// The median round is robust to a transient slowdown of the host.
	rep.set("refs_per_s", quantile(roundRates, 0.5), "refs/s", len(roundRates))
	rep.set("point_ms_p50", quantile(pointMs, 0.5), "ms", n)
	rep.set("point_ms_p90", quantile(pointMs, 0.9), "ms", n)
	rep.set("setup_s", quantile(setups, 0.5), "s", len(setups))
	rep.set("peak_rss_mb", rss, "MB", 1)
	rep.set("allocs_per_ref", float64(m1.Mallocs-m0.Mallocs)/float64(refs), "count", n)
	rep.set("alloc_bytes_per_ref", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(refs), "B", n)
	fmt.Fprintf(w, "timed phase: %d round(s), %d points, %.3f s\n", len(rounds), n, wall.Seconds())

	if err := b.check(rep, rounds); err != nil {
		return nil, err
	}
	return rep, nil
}
