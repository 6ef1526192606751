package system

import "testing"

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
