package system

import (
	"math"
	"runtime"
	"testing"

	"fpcache/internal/memtrace"
	"fpcache/internal/synth"
	"fpcache/internal/testutil"
)

// intervalTrace writes n generated records into an in-memory v2 trace
// and opens it for random access.
func intervalTrace(t *testing.T, workload string, seed int64, scale float64, n, chunk int) *memtrace.FileReader {
	t.Helper()
	return testutil.ChunkedTrace(t, workload, seed, scale, n, chunk)
}

// TestPlanIntervalsChunkAligned pins the plan invariants: interior
// boundaries land on chunk starts, the plan covers the measured region
// exactly once, and the interval count clamps to the region.
func TestPlanIntervalsChunkAligned(t *testing.T) {
	tr := intervalTrace(t, synth.WebSearch, 7, 1.0/64, 10_000, 640)
	ivs, err := PlanIntervals(tr, 1_000, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, starts, _ := tr.Chunks()
	chunkStart := map[uint64]bool{}
	for _, s := range starts {
		chunkStart[s] = true
	}
	next := uint64(1_000)
	for i, iv := range ivs {
		if iv.Start != next {
			t.Fatalf("interval %d starts at %d, want %d (gap or overlap)", i, iv.Start, next)
		}
		if i > 0 && !chunkStart[iv.Start] {
			t.Errorf("interval %d boundary %d is not a chunk start", i, iv.Start)
		}
		next = iv.Start + iv.Refs
	}
	if next != 10_000 {
		t.Fatalf("plan covers [1000, %d), want [1000, 10000)", next)
	}
	if ivs, err = PlanIntervals(tr, 9_995, 0, 64); err != nil || len(ivs) > 5 {
		t.Fatalf("tiny region planned %d intervals (err %v), want <= 5", len(ivs), err)
	}
	if _, err := PlanIntervals(tr, 10_000, 0, 4); err == nil {
		t.Fatal("warmup consuming the whole trace did not error")
	}
}

// TestIntervalFunctionalParity is the tentpole contract: the merged
// functional result of an interval-parallel run is byte-identical to
// the serial run at every worker count, with and without a checkpoint
// cache, cold and warm.
func TestIntervalFunctionalParity(t *testing.T) {
	const (
		refs   = 24_000
		warmup = 8_000
		scale  = 1.0 / 64
	)
	spec := DesignSpec{Kind: KindFootprint, PaperCapacityMB: 64, Scale: scale}
	tr := intervalTrace(t, synth.WebSearch, 7, scale, refs, 512)

	d, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	serialSrc := intervalTrace(t, synth.WebSearch, 7, scale, refs, 512)
	want := testutil.AsJSON(t, mustFunctional(RunFunctional(d, serialSrc, warmup, 0)))

	opt := IntervalOptions{
		Spec: spec, Workload: synth.WebSearch, Seed: 7, Scale: scale,
		WarmupRefs: warmup, Intervals: 6,
	}
	cache, err := NewWarmCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		tweak func(*IntervalOptions)
		check func(*IntervalReport)
	}{
		{"j1", func(o *IntervalOptions) { o.Workers = 1 }, nil},
		{"j4", func(o *IntervalOptions) { o.Workers = 4 }, nil},
		{"jNumCPU", func(o *IntervalOptions) { o.Workers = runtime.NumCPU() }, nil},
		{"cache-cold", func(o *IntervalOptions) { o.Workers = 4; o.Cache = cache }, func(r *IntervalReport) {
			if r.Segments != 1 || r.Stored == 0 {
				t.Errorf("cold cache run: segments=%d stored=%d, want one chain storing checkpoints", r.Segments, r.Stored)
			}
		}},
		{"cache-warm", func(o *IntervalOptions) { o.Workers = 4; o.Cache = cache }, func(r *IntervalReport) {
			if r.Restored == 0 || r.Segments < 2 {
				t.Errorf("warm cache run: segments=%d restored=%d, want restored parallel chains", r.Segments, r.Restored)
			}
		}},
	}
	for _, tc := range cases {
		o := opt
		tc.tweak(&o)
		rep, err := RunIntervals(tr, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testutil.AsJSON(t, rep.Functional); got != want {
			t.Fatalf("%s: merged result diverges from serial\nserial: %s\nmerged: %s", tc.name, want, got)
		}
		if tc.check != nil {
			tc.check(rep)
		}
	}
}

// TestIntervalResizeParity extends the parity contract to resizing
// partitioned designs: interval runs must fire every resize at the
// same absolute boundary with the same fraction as the serial run.
func TestIntervalResizeParity(t *testing.T) {
	const (
		refs   = 12_000
		warmup = 2_000
		scale  = 1.0 / 16
	)
	spec := DesignSpec{Kind: "footprint+memcache:50", PaperCapacityMB: 64, Scale: scale}
	plan := &ResizePlan{PeriodRefs: 1_500, Fractions: []float64{0.25, 0.75, 0.5}}
	tr := intervalTrace(t, synth.MapReduce, 11, scale, refs, 256)

	d, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	serialSrc := intervalTrace(t, synth.MapReduce, 11, scale, refs, 256)
	serial := mustFunctional(RunFunctionalResized(d, serialSrc, warmup, 0, plan))
	if serial.Partition == nil || serial.Partition.Resizes == 0 {
		t.Fatalf("serial reference applied no resizes: %+v", serial.Partition)
	}
	want := testutil.AsJSON(t, serial)

	for _, workers := range []int{1, 4} {
		rep, err := RunIntervals(tr, IntervalOptions{
			Spec: spec, Workload: synth.MapReduce, Seed: 11, Scale: scale,
			WarmupRefs: warmup, Intervals: 5, Workers: workers,
			Policy: func() ResizePolicy { return plan },
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.AsJSON(t, rep.Functional); got != want {
			t.Fatalf("j%d: resizing merged result diverges from serial\nserial: %s\nmerged: %s", workers, want, got)
		}
	}
}

// TestIntervalTimingParity pins the timing-mode contract: merged
// results are byte-identical at any worker count (including the full
// latency histogram), and the functional counters and traffic match
// the serial functional run exactly — interval timing changes when
// operations happen, never which.
func TestIntervalTimingParity(t *testing.T) {
	const (
		refs   = 12_000
		warmup = 4_000
		scale  = 1.0 / 64
	)
	spec := DesignSpec{Kind: KindFootprint, PaperCapacityMB: 64, Scale: scale}
	tr := intervalTrace(t, synth.WebSearch, 7, scale, refs, 256)

	opt := IntervalOptions{
		Spec: spec, Workload: synth.WebSearch, Seed: 7, Scale: scale,
		WarmupRefs: warmup, Intervals: 4,
		Timing: &TimingConfig{Cores: 8, MLP: 2},
	}
	var baseline *IntervalReport
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		o := opt
		o.Workers = workers
		rep, err := RunIntervals(tr, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Timing == nil {
			t.Fatal("timing mode returned no timing result")
		}
		if baseline == nil {
			baseline = rep
			continue
		}
		if testutil.AsJSON(t, rep.Timing) != testutil.AsJSON(t, baseline.Timing) {
			t.Fatalf("j%d: merged timing result diverges from j1", workers)
		}
		if testutil.AsJSON(t, rep.Timing.ReadLatency.Counts) != testutil.AsJSON(t, baseline.Timing.ReadLatency.Counts) {
			t.Fatalf("j%d: merged latency histogram diverges from j1", workers)
		}
	}

	d, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	serialSrc := intervalTrace(t, synth.WebSearch, 7, scale, refs, 256)
	fn := mustFunctional(RunFunctional(d, serialSrc, warmup, 0))
	if testutil.AsJSON(t, baseline.Timing.Counters) != testutil.AsJSON(t, fn.Counters) {
		t.Fatalf("interval timing counters diverge from serial functional run\nfunctional: %s\ntiming:     %s",
			testutil.AsJSON(t, fn.Counters), testutil.AsJSON(t, baseline.Timing.Counters))
	}
	if baseline.Timing.OffChip.ReadBursts != fn.OffChip.ReadBursts ||
		baseline.Timing.OffChip.WriteBursts != fn.OffChip.WriteBursts {
		t.Fatalf("interval timing off-chip traffic diverges from serial functional run")
	}
}

// TestIntervalTimingResizeParity extends timing-mode parity to
// resizing designs: every interval's timed measurement resumes the
// resize schedule at its absolute measured offset, so the merged
// counters, off-chip bursts, resize count and memory-region hits equal
// the serial functional run's — under a static plan and under the
// adaptive controller, at one worker and at four.
func TestIntervalTimingResizeParity(t *testing.T) {
	const (
		refs   = 12_000
		warmup = 2_000
	)
	cases := []struct {
		name     string
		spec     DesignSpec
		workload string
		policy   func() ResizePolicy
	}{
		{"plan", DesignSpec{Kind: "footprint+memcache:50", PaperCapacityMB: 64, Scale: 1.0 / 16}, synth.MapReduce,
			func() ResizePolicy { return &ResizePlan{PeriodRefs: 1_500, Fractions: []float64{0.25, 0.75, 0.5}} }},
		{"adaptive", adaptiveTestSpec(1.0 / 64), synth.WebSearch,
			func() ResizePolicy { return NewAdaptivePolicy(adaptiveTestConfig()) }},
	}
	for _, tc := range cases {
		d, err := BuildDesign(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		serialSrc := intervalTrace(t, tc.workload, 11, tc.spec.Scale, refs, 256)
		serial := mustFunctional(RunFunctionalResized(d, serialSrc, warmup, 0, tc.policy()))
		if serial.Partition == nil || serial.Partition.Resizes == 0 {
			t.Fatalf("%s: serial reference applied no resizes: %+v", tc.name, serial.Partition)
		}
		tr := intervalTrace(t, tc.workload, 11, tc.spec.Scale, refs, 256)
		for _, workers := range []int{1, 4} {
			rep, err := RunIntervals(tr, IntervalOptions{
				Spec: tc.spec, Workload: tc.workload, Seed: 11, Scale: tc.spec.Scale,
				WarmupRefs: warmup, Intervals: 5, Workers: workers, Policy: tc.policy,
				Timing: &TimingConfig{Cores: 8, MLP: 2},
			})
			if err != nil {
				t.Fatalf("%s j%d: %v", tc.name, workers, err)
			}
			got := rep.Timing
			if got == nil || got.Partition == nil {
				t.Fatalf("%s j%d: no timing partition result", tc.name, workers)
			}
			if testutil.AsJSON(t, got.Counters) != testutil.AsJSON(t, serial.Counters) {
				t.Fatalf("%s j%d: counters diverge from serial functional run\nfunctional: %s\ntiming:     %s",
					tc.name, workers, testutil.AsJSON(t, serial.Counters), testutil.AsJSON(t, got.Counters))
			}
			if got.OffChip.ReadBursts != serial.OffChip.ReadBursts || got.OffChip.WriteBursts != serial.OffChip.WriteBursts {
				t.Fatalf("%s j%d: off-chip bursts %d/%d, serial %d/%d", tc.name, workers,
					got.OffChip.ReadBursts, got.OffChip.WriteBursts, serial.OffChip.ReadBursts, serial.OffChip.WriteBursts)
			}
			if got.Partition.Resizes != serial.Partition.Resizes || got.Partition.MemHits != serial.Partition.MemHits {
				t.Fatalf("%s j%d: resizes %d, mem hits %d; serial %d, %d", tc.name, workers,
					got.Partition.Resizes, got.Partition.MemHits, serial.Partition.Resizes, serial.Partition.MemHits)
			}
		}
	}
}

// TestIntervalSampledWithinCI pins sampled mode's accuracy contract:
// with an adequate pre-roll window (here, as long as the run's own
// warmup — the regime the estimator is meant for, see DESIGN.md §11),
// the estimated hit ratio lands within its own reported 95% confidence
// interval of the exact run's, the reported measured fraction matches
// the sampling rate, and repeated sampled runs are deterministic.
func TestIntervalSampledWithinCI(t *testing.T) {
	const (
		refs   = 80_000
		warmup = 40_000
		scale  = 1.0 / 64
	)
	spec := DesignSpec{Kind: KindFootprint, PaperCapacityMB: 64, Scale: scale}
	tr := intervalTrace(t, synth.WebSearch, 7, scale, refs, 512)

	d, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	serialSrc := intervalTrace(t, synth.WebSearch, 7, scale, refs, 512)
	exact := mustFunctional(RunFunctional(d, serialSrc, warmup, 0)).Counters.HitRatio()

	opt := IntervalOptions{
		Spec: spec, Workload: synth.WebSearch, Seed: 7, Scale: scale,
		WarmupRefs: warmup, Intervals: 10, Workers: 4,
		SampleEvery: 2, SampleWarmup: warmup,
	}
	rep, err := RunIntervals(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sampled {
		t.Fatal("SampleEvery=2 did not run sampled mode")
	}
	if rep.MeasuredFraction <= 0.3 || rep.MeasuredFraction >= 0.7 {
		t.Fatalf("measured fraction %.3f, want about half", rep.MeasuredFraction)
	}
	if dev := math.Abs(rep.HitRatioMean - exact); dev > rep.HitRatioCI95 {
		t.Fatalf("sampled estimate %.5f misses exact %.5f by %.5f, outside its CI95 ±%.5f",
			rep.HitRatioMean, exact, dev, rep.HitRatioCI95)
	}
	again, err := RunIntervals(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if testutil.AsJSON(t, again) != testutil.AsJSON(t, rep) {
		t.Fatal("sampled run is not deterministic")
	}
}

// TestMergeFunctionalAndTiming pins merge arithmetic on extras: the
// footprint and partition pointers sum field-wise, partition split
// fields carry from the last interval, and an empty merge is zero.
func TestMergeFunctionalAndTiming(t *testing.T) {
	a := FunctionalResult{Design: "x", Refs: 2, Instructions: 10}
	a.Counters.Reads, a.Counters.Hits = 2, 1
	b := FunctionalResult{Design: "x", Refs: 3, Instructions: 20}
	b.Counters.Reads, b.Counters.Hits = 3, 2
	m := MergeFunctional([]FunctionalResult{a, b})
	if m.Refs != 5 || m.Instructions != 30 || m.Counters.Reads != 5 || m.Counters.Hits != 3 {
		t.Fatalf("functional merge wrong: %+v", m)
	}
	if m := MergeFunctional(nil); m.Refs != 0 || m.Footprint != nil || m.Partition != nil {
		t.Fatalf("empty merge not zero: %+v", m)
	}
}
