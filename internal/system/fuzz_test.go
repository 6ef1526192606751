package system

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
)

// FuzzDesignSpec drives the design-spec grammar with arbitrary kinds.
// A spec NormalizeKind accepts must normalize to a fixed point (its
// name parses back to the same name), and BuildDesign must either
// reject the spec or build a design that reports that name — never
// panic.
func FuzzDesignSpec(f *testing.F) {
	for _, seed := range []string{
		KindBaseline, KindBlock, KindPage, KindSubblock, KindFootprint,
		KindFootprintNoSingleton, KindFootprintUnion, KindHotPage, KindIdeal,
		"footprint+banshee", "page+blockrow", "subblock+hybrid+hotgate",
		"page+hotgate", "hotpage+blockrow", "hotpage+hybrid+memcache:25",
		"footprint+memcache:50", "subblock+memlow:0", "page+lru+pagedirect",
		" footprint + banshee ", "memcache:050+footprint", "footprint+memlow:99",
		"block+lru", "footprint+page", "memcache:100", "memcache", "+", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, kind string) {
		name, err := NormalizeKind(kind)
		if err != nil {
			if _, berr := BuildDesign(DesignSpec{Kind: kind, PaperCapacityMB: 64, Scale: 1.0 / 64}); berr == nil {
				t.Fatalf("BuildDesign accepted %q, which NormalizeKind rejects: %v", kind, err)
			}
			return
		}
		again, err := NormalizeKind(name)
		if err != nil || again != name {
			t.Fatalf("NormalizeKind(%q) = %q, but NormalizeKind(%q) = %q, %v", kind, name, name, again, err)
		}
		d, err := BuildDesign(DesignSpec{Kind: kind, PaperCapacityMB: 64, Scale: 1.0 / 64})
		if err != nil {
			return
		}
		if got := d.Name(); got != name {
			t.Fatalf("BuildDesign(%q).Name() = %q, want %q", kind, got, name)
		}
	})
}

// fuzzAccessKinds are the designs FuzzDesignAccess drives: the nine
// canonical kinds plus composites covering every policy axis.
var fuzzAccessKinds = []string{
	KindBaseline, KindBlock, KindPage, KindSubblock, KindFootprint,
	KindFootprintNoSingleton, KindFootprintUnion, KindHotPage, KindIdeal,
	"footprint+banshee", "page+blockrow", "subblock+hybrid+hotgate", "footprint+memcache:50",
}

// fuzzAccessSpec is a tiny capacity (64 KB: two sets of 2 KB pages,
// one set of 4 KB pages) so that the fuzzed addresses collide.
func fuzzAccessSpec(kind string) DesignSpec {
	return DesignSpec{Kind: kind, PaperCapacityMB: 64, Scale: 1.0 / 1024}
}

// decodeAccessRecords turns fuzz bytes into a record stream, three
// bytes a record: a 256 KB address range (four times the capacity),
// eight PCs and about a third writes.
func decodeAccessRecords(data []byte) []memtrace.Record {
	const maxRecords = 4096
	var recs []memtrace.Record
	for i := 0; i+3 <= len(data) && len(recs) < maxRecords; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		recs = append(recs, memtrace.Record{
			PC:    memtrace.PC(0x400000 + uint64(b1>>5)*4),
			Addr:  memtrace.Addr((uint64(b0) | uint64(b1&0x0f)<<8) * 64),
			Write: b2%3 == 0,
		})
	}
	return recs
}

// accessSeed encodes a stream with reuse for decodeAccessRecords: 1024
// records over 48 pages, eight hot blocks in each.
func accessSeed(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 0, 3*1024)
	for len(data) < cap(data) {
		blk := rng.Intn(48)*32 + rng.Intn(8)
		data = append(data, byte(blk), byte(blk>>8)|byte(rng.Intn(8))<<5, byte(rng.Intn(256)))
	}
	return data
}

// FuzzDesignAccess drives Design.Access with arbitrary record streams.
// After every access the ops must validate, hits plus misses must
// equal accesses, and bypasses may not exceed misses. At a fuzz-chosen
// split the design is snapshotted and restored into a fresh one; the
// two must then emit identical outcomes and counters to the end.
func FuzzDesignAccess(f *testing.F) {
	for i := range fuzzAccessKinds {
		f.Add(uint8(i), uint16(100+i*37), accessSeed(int64(i)))
	}
	f.Fuzz(func(t *testing.T, kindIdx uint8, split uint16, data []byte) {
		kind := fuzzAccessKinds[int(kindIdx)%len(fuzzAccessKinds)]
		recs := decodeAccessRecords(data)
		at := int(split) % (len(recs) + 1)
		d, err := BuildDesign(fuzzAccessSpec(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		check := func(d dcache.Design, i int, out dcache.Outcome) {
			t.Helper()
			if err := dcache.ValidateOps(out.Ops); err != nil {
				t.Fatalf("%s ref %d %+v: %v", kind, i, recs[i], err)
			}
			c := d.Counters()
			if c.Accesses() != uint64(i+1) || c.Hits+c.Misses != c.Accesses() || c.Bypasses > c.Misses {
				t.Fatalf("%s ref %d: counters %+v after %d accesses", kind, i, c, i+1)
			}
		}
		var ops []dcache.Op
		for i := 0; i < at; i++ {
			out := d.Access(recs[i], ops)
			check(d, i, out)
			ops = out.Ops
		}
		var buf bytes.Buffer
		if err := dcache.SnapshotDesign(&buf, d); err != nil {
			t.Fatalf("%s: snapshot after %d refs: %v", kind, at, err)
		}
		restored, err := BuildDesign(fuzzAccessSpec(kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := dcache.RestoreDesign(&buf, restored); err != nil {
			t.Fatalf("%s: restore after %d refs: %v", kind, at, err)
		}
		var rops []dcache.Op
		for i := at; i < len(recs); i++ {
			out := d.Access(recs[i], ops)
			check(d, i, out)
			rout := restored.Access(recs[i], rops)
			check(restored, i, rout)
			if out.Hit != rout.Hit || out.Bypass != rout.Bypass || out.TagCycles != rout.TagCycles || !slices.Equal(out.Ops, rout.Ops) {
				t.Fatalf("%s ref %d (restored at %d): outcome %+v, restored design %+v", kind, i, at, out, rout)
			}
			if d.Counters() != restored.Counters() {
				t.Fatalf("%s ref %d (restored at %d): counters %+v, restored design %+v", kind, i, at, d.Counters(), restored.Counters())
			}
			ops, rops = out.Ops, rout.Ops
		}
	})
}
