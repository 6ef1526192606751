package system

import (
	"encoding/json"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/testutil"
)

// partitionSpec builds a small partitioned footprint design.
func partitionSpec(kind string) DesignSpec {
	return DesignSpec{Kind: kind, PaperCapacityMB: 64, Scale: 1.0 / 16}
}

// TestPartitionSchedulingParity extends the scheduling-parity
// regression to resizing runs: a timing run with a resize plan must
// report the same counters, traffic, and partition statistics as a
// functional run over the same trace with the same plan — resizes
// happen at drained-reference boundaries in trace order, so controller
// scheduling cannot perturb them.
func TestPartitionSchedulingParity(t *testing.T) {
	plan := &ResizePlan{PeriodRefs: 1000, Fractions: []float64{0.25, 0.75, 0.5}}
	for _, kind := range []string{"footprint+memcache:50", "page+memlow:25", "footprint+banshee+memcache:25"} {
		d1, err := BuildDesign(partitionSpec(kind))
		if err != nil {
			t.Fatal(err)
		}
		fres := mustFunctional(RunFunctionalResized(d1, testutil.RandomTrace(6000, 33, 8), 2000, 4000, plan))

		d2, err := BuildDesign(partitionSpec(kind))
		if err != nil {
			t.Fatal(err)
		}
		tres := mustTiming(RunTiming(d2, testutil.RandomTrace(6000, 33, 8),
			TimingConfig{Cores: 8, MLP: 2, WarmupRefs: 2000, MaxRefs: 4000, Resize: plan}))

		fj, _ := json.Marshal(fres.Counters)
		tj, _ := json.Marshal(tres.Counters)
		if string(fj) != string(tj) {
			t.Fatalf("%s: counters diverge\nfunctional: %s\ntiming:     %s", kind, fj, tj)
		}
		if fres.Partition == nil || tres.Partition == nil {
			t.Fatalf("%s: missing partition stats (functional %v, timing %v)", kind, fres.Partition, tres.Partition)
		}
		fp, _ := json.Marshal(fres.Partition)
		tp, _ := json.Marshal(tres.Partition)
		if string(fp) != string(tp) {
			t.Fatalf("%s: partition stats diverge\nfunctional: %s\ntiming:     %s", kind, fp, tp)
		}
		if fres.Partition.Resizes == 0 {
			t.Fatalf("%s: plan applied no resizes: %+v", kind, *fres.Partition)
		}
		if fres.OffChip.ReadBursts != tres.OffChip.ReadBursts ||
			fres.OffChip.WriteBursts != tres.OffChip.WriteBursts {
			t.Fatalf("%s: off-chip traffic diverges: functional %d/%d, timing %d/%d", kind,
				fres.OffChip.ReadBursts, fres.OffChip.WriteBursts,
				tres.OffChip.ReadBursts, tres.OffChip.WriteBursts)
		}
		if fres.Stacked.ReadBursts != tres.Stacked.ReadBursts ||
			fres.Stacked.WriteBursts != tres.Stacked.WriteBursts {
			t.Fatalf("%s: stacked traffic diverges: functional %d/%d, timing %d/%d", kind,
				fres.Stacked.ReadBursts, fres.Stacked.WriteBursts,
				tres.Stacked.ReadBursts, tres.Stacked.WriteBursts)
		}
	}
}

// TestPartitionedDesignBasics pins structural properties of built
// partitioned designs: memory hits bypass tags, counters add up, and
// the partition share follows the spec.
func TestPartitionedDesignBasics(t *testing.T) {
	d, err := BuildDesign(partitionSpec("footprint+memcache:50"))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := d.(*dcache.Partitioned)
	if !ok {
		t.Fatalf("built design is %T, want *dcache.Partitioned", d)
	}
	res := mustFunctional(RunFunctional(d, testutil.RandomTrace(20_000, 5, 8), 5000, 0))
	if res.Partition == nil {
		t.Fatal("functional result missing partition stats")
	}
	if res.Partition.MemHits == 0 {
		t.Fatal("hash-band partition at 50% served no memory hits")
	}
	total := res.Partition.MemPages + res.Partition.CachePages
	if frac := float64(res.Partition.MemPages) / float64(total); frac < 0.45 || frac > 0.55 {
		t.Fatalf("memory share %.2f, want ≈0.50", frac)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The predictor is still reachable through the partition wrapper.
	if res.Footprint == nil {
		t.Fatal("partitioned footprint design lost predictor statistics")
	}
}

// TestKindNameRoundTrip pins the spec grammar's fixed point: the name
// a built design reports must normalize to itself and build an
// identical design — including the hotpage composites whose "hotpage"
// token carries the 4KB page pin (the PR-3 follow-up: Name() used to
// re-spell it "page+hotgate", silently dropping the page size).
func TestKindNameRoundTrip(t *testing.T) {
	specs := []string{
		"hotpage", "hotpage+blockrow", "hotpage+hybrid",
		"footprint+banshee", "page+blockrow", "subblock+hybrid+hotgate",
		"footprint+memcache:50", "page+memlow:25", "footprint+banshee+memcache:25",
		"footprint+hybrid+memcache:0",
	}
	for _, spec := range specs {
		name, err := NormalizeKind(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		again, err := NormalizeKind(name)
		if err != nil {
			t.Fatalf("%s: normalized name %q does not parse: %v", spec, name, err)
		}
		if again != name {
			t.Fatalf("%s: NormalizeKind not idempotent: %q -> %q", spec, name, again)
		}
		d, err := BuildDesign(DesignSpec{Kind: name, PaperCapacityMB: 64, Scale: 1.0 / 16})
		if err != nil {
			t.Fatalf("%s: building normalized %q: %v", spec, name, err)
		}
		if d.Name() != name {
			t.Fatalf("%s: built design reports %q, want %q", spec, d.Name(), name)
		}
	}
}

// TestHotpageCompositeKeepsPageSize verifies the behavioural half of
// the round-trip fix: a hotpage composite built from its own reported
// name still runs 4KB pages.
func TestHotpageCompositeKeepsPageSize(t *testing.T) {
	for _, spec := range []string{"hotpage+blockrow", "hotpage+hybrid", "hotpage"} {
		name, err := NormalizeKind(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := BuildDesign(DesignSpec{Kind: name, PaperCapacityMB: 64, Scale: 1.0 / 16})
		if err != nil {
			t.Fatal(err)
		}
		eng := dcache.EngineOf(d)
		if eng == nil {
			t.Fatalf("%s: no engine", spec)
		}
		if pb := eng.Geometry().PageBytes; pb != 4096 {
			t.Fatalf("%s (built as %q): page size %dB, want 4096 (CHOP pin)", spec, name, pb)
		}
	}
}

// TestPartitionSpecErrors pins grammar diagnostics.
func TestPartitionSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"memcache",                        // missing share
		"footprint+memcache:100",          // share out of range
		"footprint+memcache:-1",           // negative share
		"footprint+memcache:x",            // malformed share
		"block+memcache:50",               // fixed designs do not compose
		"footprint+memcache:25+memlow:25", // two partitions
	} {
		if _, err := NormalizeKind(bad); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
}
