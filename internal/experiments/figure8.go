package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/core"
	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// Figure8Row is the predictor accuracy at one (workload, page size)
// point, normalized the paper's way: covered and underpredicted
// blocks partition the demanded blocks; overprediction is reported
// relative to demanded blocks (so bars can exceed 100%).
type Figure8Row struct {
	Workload  string
	PageBytes int
	Covered   float64
	Under     float64
	Over      float64
}

// Figure8Rows measures footprint predictor accuracy sensitivity to
// the page size, for a 256MB cache with 16K FHT entries (§6.4).
func Figure8Rows(o Options) ([]Figure8Row, error) {
	o = o.withDefaults()
	pageSizes := []int{1024, 2048, 4096}
	_ = core.Stats{} // keep the core dependency explicit
	return pmap(o, len(o.Workloads)*len(pageSizes), func(i int) (Figure8Row, error) {
		wl := o.Workloads[i/len(pageSizes)]
		pageBytes := pageSizes[i%len(pageSizes)]
		res, err := o.functional(system.DesignSpec{
			Kind: system.KindFootprint, PaperCapacityMB: 256, Scale: o.Scale,
			PageBytes: pageBytes,
		}, wl, nil)
		if err != nil {
			return Figure8Row{}, err
		}
		fp := res.Footprint
		if fp == nil {
			return Figure8Row{}, fmt.Errorf("figure8: no footprint stats for %s", wl)
		}
		return Figure8Row{
			Workload:  wl,
			PageBytes: pageBytes,
			Covered:   fp.Coverage(),
			Under:     1 - fp.Coverage(),
			Over:      fp.Overprediction(),
		}, nil
	})
}

// Figure8 renders predictor accuracy vs page size.
func Figure8(o Options, w io.Writer) error {
	rows, err := Figure8Rows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8: predictor accuracy vs page size (256MB cache, 16K FHT entries)")
	var t stats.Table
	t.Header("workload", "page", "covered", "underpredicted", "overpredicted")
	for _, r := range rows {
		t.Row(r.Workload, fmt.Sprintf("%dB", r.PageBytes),
			stats.Pct(r.Covered), stats.Pct(r.Under), stats.Pct(r.Over))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
