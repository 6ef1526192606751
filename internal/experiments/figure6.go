package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/stats"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// PerfRow is one (workload, capacity) performance comparison:
// improvement over the no-cache baseline for each design.
type PerfRow struct {
	Workload   string
	CapacityMB int
	// Improvements keyed in Figure 6's order.
	Block, Page, Footprint, Ideal float64
}

// perfRows runs the timing comparison for the given workloads. The
// capacity-independent anchors (baseline and ideal, once per
// workload) sweep first, then the full (workload, capacity, design)
// timing grid.
func perfRows(o Options, workloads []string) ([]PerfRow, error) {
	anchors, err := pmap(o, 2*len(workloads), func(i int) (float64, error) {
		wl := workloads[i/2]
		kind := system.KindBaseline
		if i%2 == 1 {
			kind = system.KindIdeal // capacity-independent; once per workload
		}
		res, err := o.timing(system.DesignSpec{Kind: kind}, wl, nil)
		if err != nil {
			return 0, err
		}
		return res.AggIPC(), nil
	})
	if err != nil {
		return nil, err
	}

	kinds := []string{system.KindBlock, system.KindPage, system.KindFootprint}
	nPer := len(o.Capacities) * len(kinds)
	ipcs, err := pmap(o, len(workloads)*nPer, func(i int) (float64, error) {
		wl := workloads[i/nPer]
		mb := o.Capacities[i%nPer/len(kinds)]
		kind := kinds[i%len(kinds)]
		res, err := o.timing(system.DesignSpec{
			Kind: kind, PaperCapacityMB: mb, Scale: o.Scale,
		}, wl, nil)
		if err != nil {
			return 0, err
		}
		return res.AggIPC(), nil
	})
	if err != nil {
		return nil, err
	}

	var rows []PerfRow
	for wi, wl := range workloads {
		base, ideal := anchors[wi*2], anchors[wi*2+1]
		for ci, mb := range o.Capacities {
			off := wi*nPer + ci*len(kinds)
			rows = append(rows, PerfRow{
				Workload:   wl,
				CapacityMB: mb,
				Block:      ipcs[off]/base - 1,
				Page:       ipcs[off+1]/base - 1,
				Footprint:  ipcs[off+2]/base - 1,
				Ideal:      ideal/base - 1,
			})
		}
	}
	return rows, nil
}

// Figure6Rows measures performance improvement over baseline for
// every workload except Data Serving (which Figure 7 plots
// separately due to its scale, §6.3), plus a geomean row per
// capacity.
func Figure6Rows(o Options) ([]PerfRow, error) {
	o = o.withDefaults()
	var workloads []string
	for _, wl := range o.Workloads {
		if wl != synth.DataServing {
			workloads = append(workloads, wl)
		}
	}
	rows, err := perfRows(o, workloads)
	if err != nil {
		return nil, err
	}
	// Geomean across workloads per capacity (of speedups, reported as
	// improvement).
	for _, mb := range o.Capacities {
		var blk, pg, fp, id []float64
		for _, r := range rows {
			if r.CapacityMB != mb {
				continue
			}
			blk = append(blk, 1+r.Block)
			pg = append(pg, 1+r.Page)
			fp = append(fp, 1+r.Footprint)
			id = append(id, 1+r.Ideal)
		}
		if len(blk) == 0 {
			continue
		}
		rows = append(rows, PerfRow{
			Workload:   "geomean",
			CapacityMB: mb,
			Block:      stats.GeoMean(blk) - 1,
			Page:       stats.GeoMean(pg) - 1,
			Footprint:  stats.GeoMean(fp) - 1,
			Ideal:      stats.GeoMean(id) - 1,
		})
	}
	return rows, nil
}

func renderPerf(title string, rows []PerfRow, w io.Writer) error {
	fmt.Fprintln(w, title)
	var t stats.Table
	t.Header("workload", "capacity", "block", "page", "footprint", "ideal")
	for _, r := range rows {
		t.Row(r.Workload, fmt.Sprintf("%dMB", r.CapacityMB),
			stats.Pct(r.Block), stats.Pct(r.Page), stats.Pct(r.Footprint), stats.Pct(r.Ideal))
	}
	_, err := io.WriteString(w, t.String())
	return err
}

// Figure6 renders the performance comparison.
func Figure6(o Options, w io.Writer) error {
	rows, err := Figure6Rows(o)
	if err != nil {
		return err
	}
	return renderPerf("Figure 6: performance improvement over baseline (all workloads except Data Serving)", rows, w)
}

// Figure7Rows is the Data Serving performance comparison (§6.3).
func Figure7Rows(o Options) ([]PerfRow, error) {
	o = o.withDefaults()
	return perfRows(o, []string{synth.DataServing})
}

// Figure7 renders the Data Serving comparison.
func Figure7(o Options, w io.Writer) error {
	rows, err := Figure7Rows(o)
	if err != nil {
		return err
	}
	return renderPerf("Figure 7: performance improvement over baseline — Data Serving", rows, w)
}
