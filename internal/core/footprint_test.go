package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
)

// These tests drive the Footprint Cache as it runs in production: the
// composable engine with a FootprintPolicy allocation axis, packed
// page-direct mapping and plain LRU fill (footprint+pagedirect+lru).

// testGeometry: 1MB cache, 2KB pages, 16 ways (32 sets).
var testGeometry = dcache.PageGeometry{CapacityBytes: 1 << 20, PageBytes: 2048, Ways: 16}

// testConfig: small FHT/ST, singleton optimization on.
func testConfig() Config {
	cfg := Default()
	cfg.FHTEntries = 1024
	cfg.FHTWays = 8
	cfg.STEntries = 64
	cfg.STWays = 4
	return cfg
}

// fpCache is a footprint+pagedirect+lru engine with handles on its
// policy and set count.
type fpCache struct {
	*dcache.Engine
	policy *FootprintPolicy
	sets   int
}

// Extra returns the predictor statistics.
func (c fpCache) Extra() Stats { return c.policy.Extra() }

// FHTStats exposes predictor table counters.
func (c fpCache) FHTStats() (queries, cold, updates uint64) { return c.policy.FHTStats() }

func mustCache(t *testing.T, cfg Config) fpCache {
	t.Helper()
	c, _ := mustLoggedCache(t, cfg, false)
	return c
}

// evictLog wraps the policy under test and records the metadata of
// every page the engine evicts: the block-state vectors of Table 2
// as the engine keeps them (Valid, Demanded, Dirty).
type evictLog struct {
	*FootprintPolicy
	pages []dcache.PageMeta
}

// OnEvict implements dcache.AllocPolicy.
func (l *evictLog) OnEvict(meta *dcache.PageMeta) {
	l.pages = append(l.pages, *meta)
	l.FootprintPolicy.OnEvict(meta)
}

// mustLoggedCache composes footprint+pagedirect+lru, with the policy
// wrapped in an evictLog when logged is set.
func mustLoggedCache(t *testing.T, cfg Config, logged bool) (fpCache, *evictLog) {
	t.Helper()
	p, err := NewFootprintPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		alloc dcache.AllocPolicy = p
		log   *evictLog
	)
	if logged {
		log = &evictLog{FootprintPolicy: p}
		alloc = log
	}
	e, err := dcache.NewEngine(dcache.EngineConfig{
		Name:      cfg.VariantName(),
		Geometry:  testGeometry,
		TagCycles: 9,
		Alloc:     alloc,
		Mapping:   dcache.PageDirectMapping{PageBytes: testGeometry.PageBytes},
	})
	if err != nil {
		t.Fatal(err)
	}
	sets, _, err := testGeometry.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return fpCache{Engine: e, policy: p, sets: sets}, log
}

func read(pc memtrace.PC, addr memtrace.Addr) memtrace.Record {
	return memtrace.Record{PC: pc, Addr: addr}
}

func write(pc memtrace.PC, addr memtrace.Addr) memtrace.Record {
	return memtrace.Record{PC: pc, Addr: addr, Write: true}
}

func access(t *testing.T, c fpCache, rec memtrace.Record) dcache.Outcome {
	t.Helper()
	out := c.Access(rec, nil)
	if err := dcache.ValidateOps(out.Ops); err != nil {
		t.Fatalf("invalid ops: %v", err)
	}
	return out
}

// floodSet evicts everything in page 0's set by touching two blocks
// of each of pages [from..to] at the given stride. Two blocks keep
// the dummy visits from being classified as singletons (which would
// bypass allocation and defeat the flood).
func floodSet(t *testing.T, c fpCache, from, to int, pageStride memtrace.Addr) {
	t.Helper()
	for i := from; i <= to; i++ {
		base := memtrace.Addr(i) * pageStride
		access(t, c, read(0x500000, base))
		access(t, c, read(0x500000, base+64))
	}
}

// offChipBytes sums an outcome's off-chip traffic.
func offChipBytes(out dcache.Outcome) int {
	n := 0
	for _, op := range out.Ops {
		if op.Level == dcache.OffChip {
			n += op.Bytes
		}
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.FHTEntries = 10
	if _, err := NewFootprintPolicy(bad); err == nil {
		t.Fatal("bad FHT geometry accepted")
	}
	bad = testConfig()
	bad.STEntries = 3
	if _, err := NewFootprintPolicy(bad); err == nil {
		t.Fatal("bad ST geometry accepted")
	}
	p, err := NewFootprintPolicy(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	geom := testGeometry
	geom.PageBytes = 100
	if _, err := dcache.NewEngine(dcache.EngineConfig{Name: "footprint", Geometry: geom, Alloc: p,
		Mapping: dcache.PageDirectMapping{PageBytes: geom.PageBytes}}); err == nil {
		t.Fatal("bad page size accepted")
	}
}

func TestColdMissFetchesDemandedBlockOnly(t *testing.T) {
	c := mustCache(t, testConfig())
	out := access(t, c, read(0x400000, 0x10040))
	if out.Hit || out.Bypass {
		t.Fatalf("cold miss outcome: %+v", out)
	}
	if offBytes := offChipBytes(out); offBytes != 64 {
		t.Fatalf("cold (unknown footprint) miss fetched %d bytes, want 64", offBytes)
	}
	if c.Extra().FHTCold != 1 {
		t.Fatal("cold miss not counted")
	}
}

func TestLearnedFootprintPrefetched(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c := mustCache(t, cfg)
	pc := memtrace.PC(0x400100)
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets) // same set, different tag

	// Visit page 0 with a 4-block footprint starting at block 2.
	for b := 2; b < 6; b++ {
		access(t, c, read(pc, memtrace.Addr(b*64)))
	}
	// Evict page 0 by filling its set (dummy pages from other PCs).
	for i := 1; i <= 16; i++ {
		access(t, c, read(0x500000, memtrace.Addr(i)*pageStride))
	}
	// Re-trigger the same (PC, offset) on a fresh page: the learned
	// 4-block footprint must be fetched at once.
	out := access(t, c, read(pc, memtrace.Addr(17)*pageStride+2*64))
	if offBytes := offChipBytes(out); offBytes != 4*64 {
		t.Fatalf("predicted fetch = %d bytes, want %d", offBytes, 4*64)
	}
	// The prefetched blocks now hit without further misses.
	for b := 3; b < 6; b++ {
		out := access(t, c, read(pc, memtrace.Addr(17)*pageStride+memtrace.Addr(b*64)))
		if !out.Hit {
			t.Fatalf("prefetched block %d missed", b)
		}
	}
}

func TestUnderpredictionFetchesSingleBlock(t *testing.T) {
	c := mustCache(t, testConfig())
	access(t, c, read(0x400000, 0)) // page resident with block 0 only
	out := access(t, c, read(0x400000, 8*64))
	if out.Hit || out.Bypass {
		t.Fatalf("unpredicted block outcome: %+v", out)
	}
	if c.Extra().UnderpredMisses != 1 {
		t.Fatalf("underpred misses = %d", c.Extra().UnderpredMisses)
	}
	// Block is now demanded and hits.
	if !access(t, c, read(0x400000, 8*64)).Hit {
		t.Fatal("fetched block missed")
	}
}

func TestWriteMissCarriesData(t *testing.T) {
	c := mustCache(t, testConfig())
	out := access(t, c, write(0x400000, 0x20000))
	for _, op := range out.Ops {
		if op.Level == dcache.OffChip && !op.Write {
			t.Fatalf("write miss read from memory: %+v", op)
		}
		if op.Critical {
			t.Fatalf("write miss has critical op: %+v", op)
		}
	}
}

func TestSingletonBypassAndCorrection(t *testing.T) {
	c := mustCache(t, testConfig())
	pc := memtrace.PC(0x400800)
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)

	// Teach the FHT that this (PC, offset) is a singleton: visit a
	// page, touch one block, evict.
	access(t, c, read(pc, 0))
	floodSet(t, c, 1, 16, pageStride)

	// Next trigger from the same key: predicted singleton, bypassed.
	// (The flood itself performs one learning bypass+correction cycle,
	// so assert on deltas.)
	pre := c.Extra()
	out := access(t, c, read(pc, memtrace.Addr(17)*pageStride))
	if !out.Bypass {
		t.Fatalf("predicted singleton not bypassed: %+v", out)
	}
	if got := c.Extra().SingletonBypasses - pre.SingletonBypasses; got != 1 {
		t.Fatalf("bypass delta = %d", got)
	}
	if len(out.Ops) != 1 || out.Ops[0].Level != dcache.OffChip || out.Ops[0].Bytes != 64 {
		t.Fatalf("bypass ops: %+v", out.Ops)
	}

	// A second access to the bypassed page with a different offset is
	// the ST-correction path: the page must now be allocated.
	out = access(t, c, read(0x400900, memtrace.Addr(17)*pageStride+5*64))
	if out.Bypass {
		t.Fatal("second access to bypassed page bypassed again")
	}
	if got := c.Extra().STCorrections - pre.STCorrections; got != 1 {
		t.Fatalf("ST correction delta = %d", got)
	}
	// Both the original singleton block and the new one were fetched.
	if !access(t, c, read(0x400900, memtrace.Addr(17)*pageStride)).Hit {
		t.Fatal("ST-corrected original block not fetched")
	}
}

func TestSingletonOptDisabledAllocates(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c := mustCache(t, cfg)
	pc := memtrace.PC(0x400800)
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)
	access(t, c, read(pc, 0))
	floodSet(t, c, 1, 16, pageStride)
	out := access(t, c, read(pc, memtrace.Addr(17)*pageStride))
	if out.Bypass {
		t.Fatal("bypass happened with optimization disabled")
	}
	if c.Extra().SingletonBypasses != 0 {
		t.Fatal("bypass counted with optimization disabled")
	}
}

func TestEvictionFeedbackAccuracyCounters(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c := mustCache(t, cfg)
	pc := memtrace.PC(0x400100)
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)

	// Learn footprint {0,1}; revisit touches {0,2}: at the second
	// eviction covered=1 (block 0), under=1 (block 2), over=1 (block 1).
	access(t, c, read(pc, 0))
	access(t, c, read(pc, 64))
	for i := 1; i <= 16; i++ {
		access(t, c, read(0x500000, memtrace.Addr(i)*pageStride))
	}
	pre := c.Extra()
	access(t, c, read(pc, memtrace.Addr(17)*pageStride))      // trigger: predicts {0,1}
	access(t, c, read(pc, memtrace.Addr(17)*pageStride+2*64)) // underpred block 2
	for i := 18; i <= 34; i++ {
		access(t, c, read(0x500000, memtrace.Addr(i)*pageStride))
	}
	post := c.Extra().Sub(pre)
	if post.CoveredBlocks < 1 || post.UnderBlocks < 1 || post.OverBlocks < 1 {
		t.Fatalf("accuracy counters: %+v", post)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := mustCache(t, testConfig())
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)
	access(t, c, write(0x400000, 0))
	floodSet(t, c, 1, 17, pageStride)
	if c.Counters().PageEvicts == 0 {
		t.Fatal("flood failed to evict")
	}
	if c.Counters().DirtyEvicts == 0 {
		t.Fatal("dirty eviction not counted")
	}
}

func TestDensityObserver(t *testing.T) {
	c := mustCache(t, testConfig())
	var got []int
	c.OnEvict = func(d, blocks int) { got = append(got, d) }
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)
	access(t, c, read(0x400000, 0))
	access(t, c, read(0x400000, 64))
	floodSet(t, c, 1, 17, pageStride)
	if len(got) == 0 || got[0] != 2 {
		t.Fatalf("densities = %v, want first=2", got)
	}
}

func TestMetadataBudgetMatchesTable4(t *testing.T) {
	// Paper Table 4: 64MB Footprint tags = 0.40MB (we include the FHT
	// and ST in the budget, so allow a little headroom).
	p, err := NewFootprintPolicy(Default())
	if err != nil {
		t.Fatal(err)
	}
	budgetMB := func(capMB int64) float64 {
		geom := dcache.PageGeometry{CapacityBytes: capMB << 20, PageBytes: 2048, Ways: 16}
		return float64(dcache.MetadataBits(geom, p)) / 8 / (1 << 20)
	}
	if mb := budgetMB(64); mb < 0.35 || mb > 0.60 {
		t.Fatalf("64MB footprint metadata = %.3fMB, want ~0.40-0.55MB", mb)
	}
	// 512MB = 3.12MB in the paper.
	if mb := budgetMB(512); mb < 2.8 || mb > 3.5 {
		t.Fatalf("512MB footprint metadata = %.2fMB, want ~3.12MB", mb)
	}
}

func TestCountersConsistentUnderRandomTraffic(t *testing.T) {
	c := mustCache(t, testConfig())
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200000; i++ {
		rec := memtrace.Record{
			PC:    memtrace.PC(0x400000 + rng.Intn(128)*4),
			Addr:  memtrace.Addr(rng.Intn(1<<22) * 64),
			Write: rng.Intn(3) == 0,
		}
		out := c.Access(rec, nil)
		if err := dcache.ValidateOps(out.Ops); err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
	}
	ctr := c.Counters()
	if ctr.Hits+ctr.Misses != ctr.Accesses() {
		t.Fatalf("hits+misses != accesses: %+v", ctr)
	}
	if ctr.Bypasses > ctr.Misses {
		t.Fatalf("bypasses exceed misses: %+v", ctr)
	}
	ex := c.Extra()
	if ex.UnderpredMisses+ex.SingletonBypasses+ex.FHTCold > ctr.Misses {
		t.Fatalf("miss decomposition exceeds misses: %+v vs %d", ex, ctr.Misses)
	}
	q, cold, upd := c.FHTStats()
	if cold > q {
		t.Fatalf("FHT cold %d > queries %d", cold, q)
	}
	if upd == 0 {
		t.Fatal("FHT never updated despite evictions")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() dcache.Counters {
		c := mustCache(t, testConfig())
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50000; i++ {
			c.Access(memtrace.Record{
				PC:    memtrace.PC(0x400000 + rng.Intn(64)*4),
				Addr:  memtrace.Addr(rng.Intn(1<<20) * 64),
				Write: rng.Intn(4) == 0,
			}, nil)
		}
		return c.Counters()
	}
	if run() != run() {
		t.Fatal("identical traces produced different counters")
	}
}

func TestFeedbackUnionGrowsFootprints(t *testing.T) {
	// With union feedback, a key that alternates between two
	// footprints converges to their union; with replace it keeps
	// flipping. Drive both configurations through the same sequence
	// and compare the third-round fetch size.
	run := func(policy FeedbackPolicy) int {
		cfg := testConfig()
		cfg.SingletonOpt = false
		cfg.Feedback = policy
		c := mustCache(t, cfg)
		pc := memtrace.PC(0x400100)
		sets := c.sets
		pageStride := memtrace.Addr(2048 * sets)
		// Round 1 on page A: blocks {0,1}. Round 2 on page B: {0,2}.
		access(t, c, read(pc, 0))
		access(t, c, read(pc, 64))
		floodSet(t, c, 1, 16, pageStride)
		access(t, c, read(pc, memtrace.Addr(17)*pageStride))
		access(t, c, read(pc, memtrace.Addr(17)*pageStride+2*64))
		floodSet(t, c, 18, 34, pageStride)
		// Round 3: count fetched bytes.
		out := access(t, c, read(pc, memtrace.Addr(35)*pageStride))
		return offChipBytes(out)
	}
	union := run(FeedbackUnion)
	replace := run(FeedbackReplace)
	if union <= replace {
		t.Fatalf("union fetch %dB not above replace %dB", union, replace)
	}
	if union != 3*64 { // {0,1,2}
		t.Fatalf("union fetch = %dB, want 192", union)
	}
}

func TestFeedbackPolicyString(t *testing.T) {
	if FeedbackReplace.String() != "replace" || FeedbackUnion.String() != "union" {
		t.Fatal("FeedbackPolicy.String wrong")
	}
}

func TestNameAndInterface(t *testing.T) {
	var d dcache.Design = mustCache(t, testConfig())
	if d.Name() != "footprint" {
		t.Fatalf("Name = %q", d.Name())
	}
	for _, c := range []struct {
		singleton bool
		feedback  FeedbackPolicy
		want      string
	}{{true, FeedbackReplace, "footprint"}, {false, FeedbackReplace, "footprint-nosingleton"}, {true, FeedbackUnion, "footprint-union"}} {
		cfg := testConfig()
		cfg.SingletonOpt, cfg.Feedback = c.singleton, c.feedback
		p, err := NewFootprintPolicy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var alloc dcache.AllocPolicy = p
		if alloc.Name() != c.want {
			t.Fatalf("policy name = %q, want %q", alloc.Name(), c.want)
		}
	}
}

// The Table 2 block states, as the engine's page metadata keeps them:
// not present (¬Valid), clean-prefetched (Valid ∧ ¬Demanded),
// clean-demanded (Demanded ∧ ¬Dirty) and dirty-demanded (Dirty). A
// block is never dirty without being demanded, nor demanded without
// being present: Dirty ⊆ Demanded ⊆ Valid.

// learnFootprint teaches the FHT the footprint blocks for (pc, block
// 0) by touching them on page 0 and flooding its set; it returns the
// stride between pages of that set. Needs SingletonOpt off.
func learnFootprint(t *testing.T, c fpCache, pc memtrace.PC, blocks ...int) memtrace.Addr {
	t.Helper()
	pageStride := memtrace.Addr(2048 * c.sets)
	for _, b := range blocks {
		access(t, c, read(pc, memtrace.Addr(b*64)))
	}
	floodSet(t, c, 1, 16, pageStride)
	return pageStride
}

// evictPage floods a set with 16 fresh pages from first onwards,
// which evicts all 16 residents in LRU order, and returns the
// metadata of the last one evicted: the page that was most recently
// used when the flood began.
func evictPage(t *testing.T, c fpCache, log *evictLog, first int, pageStride memtrace.Addr) dcache.PageMeta {
	t.Helper()
	log.pages = log.pages[:0]
	floodSet(t, c, first, first+15, pageStride)
	if len(log.pages) == 0 {
		t.Fatal("flood evicted nothing")
	}
	return log.pages[len(log.pages)-1]
}

func TestTable2Encoding(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c, log := mustLoggedCache(t, cfg, true)
	pc := memtrace.PC(0x400100)
	stride := learnFootprint(t, c, pc, 0, 1, 2)
	var densities []int
	c.OnEvict = func(d, blocks int) { densities = append(densities, d) }

	// Page 17: the trigger read fetches {0,1,2}; block 0 is demanded
	// clean, a write makes block 1 dirty-demanded, block 2 stays
	// clean-prefetched and block 3 is not present.
	base := memtrace.Addr(17) * stride
	access(t, c, read(pc, base))
	access(t, c, write(pc, base+64))
	if !access(t, c, read(pc, base+64)).Hit {
		t.Fatal("dirty-demanded block not present")
	}
	if out := access(t, c, read(pc, base+3*64)); out.Hit {
		t.Fatal("unfetched block hit")
	}
	// Block 3 is now clean-demanded too.
	meta := evictPage(t, c, log, 18, stride)
	if meta.Valid != 0b1111 || meta.Demanded != 0b1011 || meta.Dirty != 0b0010 {
		t.Fatalf("evicted vectors valid=%04b demanded=%04b dirty=%04b, want 1111/1011/0010", meta.Valid, meta.Demanded, meta.Dirty)
	}
	if d := densities[len(densities)-1]; d != 3 {
		t.Fatalf("eviction density = %d, want the 3 demanded blocks", d)
	}
}

func TestDemandTransitions(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c, log := mustLoggedCache(t, cfg, true)
	pc := memtrace.PC(0x400100)
	stride := learnFootprint(t, c, pc, 0, 1, 2)
	base := memtrace.Addr(17) * stride
	access(t, c, read(pc, base))      // block 0: clean-demanded
	access(t, c, write(pc, base))     // read-then-write upgrades
	access(t, c, write(pc, base+64))  // block 1: dirty-demanded
	access(t, c, read(pc, base+64))   // write-then-read stays dirty
	access(t, c, read(pc, base+2*64)) // block 2: clean-demanded
	meta := evictPage(t, c, log, 18, stride)
	if meta.Demanded != 0b111 || meta.Dirty != 0b011 {
		t.Fatalf("demanded=%03b dirty=%03b, want 111/011", meta.Demanded, meta.Dirty)
	}
}

func TestFillMarksCleanPrefetched(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c, log := mustLoggedCache(t, cfg, true)
	pc := memtrace.PC(0x400100)
	stride := learnFootprint(t, c, pc, 0, 1, 3)
	access(t, c, read(pc, memtrace.Addr(17)*stride))
	meta := evictPage(t, c, log, 18, stride)
	// Blocks 1 and 3 came on the predictor's say-so only: present,
	// not demanded, clean. Block 2 was never fetched.
	if meta.Valid != 0b1011 || meta.Predicted != 0b1011 || meta.Demanded != 0b0001 || meta.Dirty != 0 {
		t.Fatalf("valid=%04b predicted=%04b demanded=%04b dirty=%04b", meta.Valid, meta.Predicted, meta.Demanded, meta.Dirty)
	}
}

func TestFillDoesNotDowngradeDemanded(t *testing.T) {
	c, log := mustLoggedCache(t, testConfig(), true)
	pageStride := memtrace.Addr(2048 * c.sets)
	access(t, c, write(0x400000, 0))    // trigger: block 0 dirty-demanded
	access(t, c, read(0x400000, 5*64))  // underprediction fills block 5
	access(t, c, write(0x400000, 6*64)) // write block miss fills block 6
	meta := evictPage(t, c, log, 1, pageStride)
	if meta.Dirty != 0b1000001 || meta.Demanded != 0b1100001 || meta.Valid != 0b1100001 {
		t.Fatalf("valid=%07b demanded=%07b dirty=%07b, want 1100001/1100001/1000001", meta.Valid, meta.Demanded, meta.Dirty)
	}
}

// Property: whatever the traffic, every page the engine evicts has
// Dirty ⊆ Demanded ⊆ Valid and Predicted ⊆ Valid, and its writeback
// moves exactly its dirty blocks.
func TestPropertyStateInvariants(t *testing.T) {
	dirtyEvictions := 0
	f := func(seed int64) bool {
		c, log := mustLoggedCache(t, testConfig(), true)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			// 64 pages of one set, 8 blocks each, 4 PCs.
			rec := memtrace.Record{
				PC:    memtrace.PC(0x400000 + rng.Intn(4)*4),
				Addr:  memtrace.Addr(rng.Intn(64)*2048*c.sets + rng.Intn(8)*64),
				Write: rng.Intn(3) == 0,
			}
			log.pages = log.pages[:0]
			out := c.Access(rec, nil)
			if dcache.ValidateOps(out.Ops) != nil {
				return false
			}
			// An allocating access emits no off-chip write of its own,
			// so its off-chip writes are the victims' writebacks.
			var wb, dirty int
			for _, op := range out.Ops {
				if op.Level == dcache.OffChip && op.Write {
					wb += op.Bytes
				}
			}
			for _, m := range log.pages {
				if m.Dirty&^m.Demanded != 0 || m.Demanded&^m.Valid != 0 || m.Predicted&^m.Valid != 0 {
					return false
				}
				dirty += popcount(m.Dirty)
			}
			if len(log.pages) > 0 && wb != 64*dirty {
				return false
			}
			if dirty > 0 {
				dirtyEvictions++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if dirtyEvictions == 0 {
		t.Fatal("traffic produced no dirty evictions")
	}
}
