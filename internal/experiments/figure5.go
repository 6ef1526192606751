package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// Figure5Row compares the three cache organizations at one (workload,
// capacity) point: miss ratios (5a) and off-chip bandwidth normalized
// to the no-cache baseline (5b).
type Figure5Row struct {
	Workload   string
	CapacityMB int

	MissPage, MissFootprint, MissBlock float64
	BWPage, BWFootprint, BWBlock       float64
}

// Figure5Rows measures miss ratio and off-chip traffic for the
// page-based, Footprint, and block-based designs (§6.2). The
// per-workload baselines (the traffic normalizer) sweep first; the
// (workload, capacity, design) grid sweeps second.
func Figure5Rows(o Options) ([]Figure5Row, error) {
	o = o.withDefaults()
	baseBW, err := pmap(o, len(o.Workloads), func(i int) (float64, error) {
		base, err := o.functional(system.DesignSpec{Kind: system.KindBaseline}, o.Workloads[i], nil)
		if err != nil {
			return 0, err
		}
		return base.OffChipBytesPerRef(), nil
	})
	if err != nil {
		return nil, err
	}

	kinds := []string{system.KindPage, system.KindFootprint, system.KindBlock}
	pts := o.grid()
	type meas struct{ miss, bytesPerRef float64 }
	res, err := pmap(o, len(pts)*len(kinds), func(i int) (meas, error) {
		pt, kind := pts[i/len(kinds)], kinds[i%len(kinds)]
		r, err := o.functional(system.DesignSpec{
			Kind: kind, PaperCapacityMB: pt.capacityMB, Scale: o.Scale,
		}, pt.workload, nil)
		if err != nil {
			return meas{}, err
		}
		return meas{r.MissRatio(), r.OffChipBytesPerRef()}, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []Figure5Row
	for pi, pt := range pts {
		base := baseBW[pi/len(o.Capacities)]
		m := res[pi*len(kinds) : (pi+1)*len(kinds)]
		rows = append(rows, Figure5Row{
			Workload:      pt.workload,
			CapacityMB:    pt.capacityMB,
			MissPage:      m[0].miss,
			MissFootprint: m[1].miss,
			MissBlock:     m[2].miss,
			BWPage:        stats.Ratio(m[0].bytesPerRef, base),
			BWFootprint:   stats.Ratio(m[1].bytesPerRef, base),
			BWBlock:       stats.Ratio(m[2].bytesPerRef, base),
		})
	}
	return rows, nil
}

// Figure5 renders miss ratios and normalized off-chip bandwidth.
func Figure5(o Options, w io.Writer) error {
	rows, err := Figure5Rows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 5a: DRAM cache miss ratio — page / footprint / block")
	var a stats.Table
	a.Header("workload", "capacity", "page", "footprint", "block")
	for _, r := range rows {
		a.Row(r.Workload, fmt.Sprintf("%dMB", r.CapacityMB),
			stats.Pct(r.MissPage), stats.Pct(r.MissFootprint), stats.Pct(r.MissBlock))
	}
	if _, err := io.WriteString(w, a.String()); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nFigure 5b: off-chip bandwidth normalized to baseline — page / footprint / block")
	var b stats.Table
	b.Header("workload", "capacity", "page", "footprint", "block")
	for _, r := range rows {
		b.Row(r.Workload, fmt.Sprintf("%dMB", r.CapacityMB),
			fmt.Sprintf("%.2fx", r.BWPage), fmt.Sprintf("%.2fx", r.BWFootprint), fmt.Sprintf("%.2fx", r.BWBlock))
	}
	_, err = io.WriteString(w, b.String())
	return err
}
