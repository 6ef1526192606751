package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/core"
	"fpcache/internal/dcache"
	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// Table4Row reproduces one capacity column of the paper's Table 4:
// per-design SRAM metadata storage and lookup latency.
type Table4Row struct {
	CapacityMB int

	FootprintMB     float64
	FootprintCycles int
	MissMapEntries  int
	MissMapMB       float64
	MissMapWays     int
	MissMapCycles   int
	PageMB          float64
	PageCycles      int
}

// Table4Rows computes metadata budgets from design geometry at paper
// scale, through the same functions the built designs report their
// MetadataBits with: dcache.MetadataBits for the page-granularity
// designs and dcache.BlockMetadataBits for the MissMap.
func Table4Rows(o Options) ([]Table4Row, error) {
	o = o.withDefaults()
	return pmap(o, len(o.Capacities), func(i int) (Table4Row, error) {
		mb := o.Capacities[i]
		geom := dcache.PageGeometry{CapacityBytes: int64(mb) << 20, PageBytes: 2048, Ways: 16}
		footprint, err := core.NewFootprintPolicy(core.Default())
		if err != nil {
			return Table4Row{}, err
		}
		mmEntries, mmWays, mmLat := dcache.MissMapParams(mb)

		return Table4Row{
			CapacityMB:      mb,
			FootprintMB:     float64(dcache.MetadataBits(geom, footprint)) / 8 / (1 << 20),
			FootprintCycles: system.TagLatencyFor(system.KindFootprint, mb),
			MissMapEntries:  mmEntries,
			MissMapMB:       float64(dcache.BlockMetadataBits(mmEntries, mmWays)) / 8 / (1 << 20),
			MissMapWays:     mmWays,
			MissMapCycles:   mmLat,
			PageMB:          float64(dcache.MetadataBits(geom, dcache.PageAlloc{})) / 8 / (1 << 20),
			PageCycles:      system.TagLatencyFor(system.KindPage, mb),
		}, nil
	})
}

// Table4 renders the cache-parameter table.
func Table4(o Options, w io.Writer) error {
	rows, err := Table4Rows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 4: cache parameters (SRAM metadata storage and lookup latency)")
	var t stats.Table
	t.Header("capacity", "footprint tags", "fp lat", "missmap entries", "missmap size", "mm ways", "mm lat", "page tags", "page lat")
	for _, r := range rows {
		t.Row(fmt.Sprintf("%dMB", r.CapacityMB),
			fmt.Sprintf("%.2fMB", r.FootprintMB), fmt.Sprintf("%dcy", r.FootprintCycles),
			fmt.Sprintf("%dK", r.MissMapEntries/1024), fmt.Sprintf("%.2fMB", r.MissMapMB),
			fmt.Sprint(r.MissMapWays), fmt.Sprintf("%dcy", r.MissMapCycles),
			fmt.Sprintf("%.2fMB", r.PageMB), fmt.Sprintf("%dcy", r.PageCycles))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
