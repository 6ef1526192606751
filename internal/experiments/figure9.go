package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// FHTSizes are Figure 9's history-size sweep points.
var FHTSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}

// Figure9Row is one workload's hit-ratio curve over FHT sizes.
type Figure9Row struct {
	Workload  string
	HitRatios []float64 // aligned with FHTSizes
}

// Figure9Rows measures Footprint Cache hit ratio sensitivity to the
// number of FHT entries (256MB cache, 2KB pages, §6.4).
func Figure9Rows(o Options) ([]Figure9Row, error) {
	o = o.withDefaults()
	ratios, err := pmap(o, len(o.Workloads)*len(FHTSizes), func(i int) (float64, error) {
		wl := o.Workloads[i/len(FHTSizes)]
		entries := FHTSizes[i%len(FHTSizes)]
		res, err := o.functional(system.DesignSpec{
			Kind: system.KindFootprint, PaperCapacityMB: 256, Scale: o.Scale,
			FHTEntries: entries,
		}, wl, nil)
		if err != nil {
			return 0, err
		}
		return res.Counters.HitRatio(), nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Figure9Row
	for wi, wl := range o.Workloads {
		rows = append(rows, Figure9Row{
			Workload:  wl,
			HitRatios: ratios[wi*len(FHTSizes) : (wi+1)*len(FHTSizes)],
		})
	}
	return rows, nil
}

// Figure9 renders the history-size sensitivity.
func Figure9(o Options, w io.Writer) error {
	rows, err := Figure9Rows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9: hit ratio vs FHT entries (256MB cache, 2KB pages)")
	var t stats.Table
	hdr := []string{"workload"}
	for _, e := range FHTSizes {
		hdr = append(hdr, fmt.Sprintf("%dK", e/1024))
	}
	t.Header(hdr...)
	for _, r := range rows {
		cells := []string{r.Workload}
		for _, h := range r.HitRatios {
			cells = append(cells, stats.Pct(h))
		}
		t.Row(cells...)
	}
	_, err = io.WriteString(w, t.String())
	return err
}
