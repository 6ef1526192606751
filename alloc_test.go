package fpcache

// Allocation budgets for the simulation hot path. The Design.Access
// contract hands the caller's ops scratch buffer to the design, so
// after warmup a functional run performs zero heap allocations per
// reference — these tests pin that property for every design so a
// regression fails CI rather than silently melting throughput. The
// timing runner keeps the same budget through pooled flight records
// and callbacks bound once (DESIGN.md §3), pinned by
// TestTimingZeroAllocs and TestControllerSubmitZeroAllocs.

import (
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
	"fpcache/internal/system"
)

// allocBudgetKinds is every design the zero-allocation budget covers:
// the paper's canonical kinds plus policy compositions exercising
// every engine axis (gated fills, row-spread and hybrid mappings, and
// partitioned stacked capacity with its consistent-hash indexing).
func allocBudgetKinds() []DesignKind {
	kinds := append(Designs(), HybridDesigns()...)
	return append(kinds, "page+blockrow", "subblock+hybrid+hotgate", "page+banshee",
		"footprint+memcache:50", "page+memlow:25", "footprint+banshee+memcache:25")
}

// allTestableDesigns returns every covered design kind at a small
// capacity.
func allTestableDesigns(tb testing.TB) map[string]dcache.Design {
	tb.Helper()
	out := make(map[string]dcache.Design)
	for _, kind := range allocBudgetKinds() {
		d, err := NewDesign(Config{Design: kind, PaperCapacityMB: 64, Refs: 1})
		if err != nil {
			tb.Fatalf("%s: %v", kind, err)
		}
		out[string(kind)] = d
	}
	return out
}

// accessRecords builds a mixed read/write reference stream with
// enough footprint to exercise hits, misses, evictions, and bypasses.
func accessRecords(n int) []memtrace.Record {
	rng := rand.New(rand.NewSource(42))
	recs := make([]memtrace.Record, n)
	for i := range recs {
		recs[i] = memtrace.Record{
			PC:    memtrace.PC(0x400000 + rng.Intn(256)*4),
			Addr:  memtrace.Addr(rng.Intn(1<<22) * 64),
			Write: rng.Intn(3) == 0,
		}
	}
	return recs
}

// TestAccessZeroAllocs asserts the zero-allocation budget: steady
// state Design.Access with a reused scratch buffer must not allocate,
// for every design.
func TestAccessZeroAllocs(t *testing.T) {
	recs := accessRecords(1 << 16)
	for name, d := range allTestableDesigns(t) {
		// Warm the design (tables filled, eviction paths active) and
		// the scratch buffer (grown to the largest outcome).
		var ops []dcache.Op
		for i := 0; i < 1<<17; i++ {
			ops = d.Access(recs[i&(1<<16-1)], ops).Ops
		}
		idx := 0
		avg := testing.AllocsPerRun(2000, func() {
			ops = d.Access(recs[idx&(1<<16-1)], ops).Ops
			idx++
		})
		if avg != 0 {
			t.Errorf("%s: Access allocates %.2f allocs/op in steady state, want 0", name, avg)
		}
	}
}

// timingMallocs runs a warmed footprint RunTiming over the first
// warmup+refs records and returns the heap allocations it made.
func timingMallocs(t *testing.T, recs []memtrace.Record, warmup, refs, mlp int) uint64 {
	t.Helper()
	d, err := NewDesign(Config{Workload: WebSearch, Design: Footprint, PaperCapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.TimingConfig{MLP: mlp, WarmupRefs: warmup, MaxRefs: refs}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = system.RunTiming(d, memtrace.NewSlice(recs), cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestTimingZeroAllocs extends the budget to the timing runner: a run
// twice as long must not allocate per reference. The extra N
// references of a 2N run may only grow pools to a higher high water
// (flights in flight, demux queue rings, controller bank queues,
// pending events) — a few dozen allocations, a logarithmic or bounded
// function of run length — so the extra mallocs per extra reference
// must stay below 1e-3; one allocation on even 0.1% of references
// fails the test.
func TestTimingZeroAllocs(t *testing.T) {
	const warmup, n = 50_000, 100_000
	src, prof, err := NewTrace(Config{Workload: WebSearch})
	if err != nil {
		t.Fatal(err)
	}
	recs := memtrace.Collect(src, warmup+2*n)
	once := timingMallocs(t, recs, warmup, n, prof.MLP)
	twice := timingMallocs(t, recs, warmup, 2*n, prof.MLP)
	extra := int64(twice) - int64(once)
	perRef := float64(extra) / n
	t.Logf("%d mallocs over %d refs, %d over %d: %.5f allocs/ref", once, n, twice, 2*n, perRef)
	if perRef >= 1e-3 {
		t.Errorf("RunTiming allocates %.4f allocs/ref in steady state (%d mallocs over %d refs, %d over %d), want 0",
			perRef, once, n, twice, 2*n)
	}
}

// TestControllerSubmitZeroAllocs pins the controller's share: once a
// reused Request has completed once (binding its completion
// callback), submitting it and running it to completion allocates
// nothing — reads and writes, row hits and conflicts alike.
func TestControllerSubmitZeroAllocs(t *testing.T) {
	eng := &sim.Engine{}
	ctrl := dram.NewController(eng, dram.StackedDDR3_3200())
	completed := 0
	req := &dram.Request{Bytes: 64, Done: func(sim.Cycle) { completed++ }}
	rng := rand.New(rand.NewSource(1))
	round := func() {
		req.Addr = memtrace.Addr(rng.Intn(1<<20) * 64)
		req.Write = rng.Intn(3) == 0
		ctrl.Submit(req)
		eng.Run(nil)
	}
	for i := 0; i < 1000; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(2000, round); avg != 0 {
		t.Errorf("Controller.Submit + completion allocates %.2f allocs/op in steady state, want 0", avg)
	}
	if want := 1000 + 2001; completed != want {
		t.Errorf("%d completions, want %d", completed, want)
	}
}

// TestAllocBudgetManifestAgreement pins the static and runtime
// budgets together: TestAccessZeroAllocs wants 0 allocs/op in steady
// state, so the fplint allocbudget manifest must budget no hot-path
// escapes. A change that adds a manifest entry has to loosen this test
// — and justify the runtime budget — in the same commit, so the two
// enforcement layers cannot drift apart silently.
func TestAllocBudgetManifestAgreement(t *testing.T) {
	raw, err := os.ReadFile("lint/allocbudget.manifest")
	if err != nil {
		t.Fatalf("reading allocbudget manifest: %v", err)
	}
	for i, line := range strings.Split(string(raw), "\n") {
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		t.Errorf("lint/allocbudget.manifest:%d: entry %q budgets a hot-path heap allocation, "+
			"but TestAccessZeroAllocs pins 0 allocs/op — the static and runtime budgets disagree", i+1, text)
	}
}

// BenchmarkDesignAccess measures per-access cost and allocation for
// every design under the scratch-buffer contract.
func BenchmarkDesignAccess(b *testing.B) {
	recs := accessRecords(1 << 16)
	for _, kind := range allocBudgetKinds() {
		b.Run(string(kind), func(b *testing.B) {
			d, err := NewDesign(Config{Design: kind, PaperCapacityMB: 64, Refs: 1})
			if err != nil {
				b.Fatal(err)
			}
			var ops []dcache.Op
			for i := 0; i < 1<<16; i++ {
				ops = d.Access(recs[i], ops).Ops
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops = d.Access(recs[i&(1<<16-1)], ops).Ops
			}
		})
	}
}
