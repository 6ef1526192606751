package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/energy"
	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// EnergyRow is one workload's DRAM dynamic-energy-per-instruction
// breakdown for the four systems at 256MB (Figures 10 and 11).
type EnergyRow struct {
	Workload string
	// Per-design breakdowns (pJ/instruction).
	Baseline, Block, Page, Footprint struct {
		OffChip energy.Breakdown
		Stacked energy.Breakdown
	}
}

// energyRows runs the 256MB timing comparison that backs both energy
// figures, sweeping the (workload, design) grid in parallel.
func energyRows(o Options) ([]EnergyRow, error) {
	o = o.withDefaults()
	kinds := []string{system.KindBaseline, system.KindBlock, system.KindPage, system.KindFootprint}
	type slot struct{ OffChip, Stacked energy.Breakdown }
	slots, err := pmap(o, len(o.Workloads)*len(kinds), func(i int) (slot, error) {
		wl := o.Workloads[i/len(kinds)]
		kind := kinds[i%len(kinds)]
		res, err := o.timing(system.DesignSpec{
			Kind: kind, PaperCapacityMB: 256, Scale: o.Scale,
		}, wl, nil)
		if err != nil {
			return slot{}, err
		}
		return slot{res.OffChipEnergyPerInstr(), res.StackedEnergyPerInstr()}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []EnergyRow
	for wi, wl := range o.Workloads {
		row := EnergyRow{Workload: wl}
		s := slots[wi*len(kinds) : (wi+1)*len(kinds)] // kinds order
		row.Baseline.OffChip, row.Baseline.Stacked = s[0].OffChip, s[0].Stacked
		row.Block.OffChip, row.Block.Stacked = s[1].OffChip, s[1].Stacked
		row.Page.OffChip, row.Page.Stacked = s[2].OffChip, s[2].Stacked
		row.Footprint.OffChip, row.Footprint.Stacked = s[3].OffChip, s[3].Stacked
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure10Rows measures off-chip DRAM dynamic energy per instruction,
// normalized to the baseline system (§6.6).
func Figure10Rows(o Options) ([]EnergyRow, error) { return energyRows(o) }

// Figure10 renders off-chip energy, split into activate/precharge and
// read/write burst energy, normalized to baseline.
func Figure10(o Options, w io.Writer) error {
	rows, err := energyRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 10: off-chip DRAM dynamic energy per instruction, normalized to baseline (act-pre + burst)")
	var t stats.Table
	t.Header("workload", "baseline", "block", "page", "footprint")
	cell := func(b energy.Breakdown, base float64) string {
		return fmt.Sprintf("%.2f (%.2f+%.2f)", b.TotalPJ()/base, b.ActPrePJ/base, b.BurstPJ/base)
	}
	var geo [3][]float64
	for _, r := range rows {
		base := r.Baseline.OffChip.TotalPJ()
		if base == 0 {
			continue
		}
		t.Row(r.Workload, cell(r.Baseline.OffChip, base), cell(r.Block.OffChip, base),
			cell(r.Page.OffChip, base), cell(r.Footprint.OffChip, base))
		geo[0] = append(geo[0], r.Block.OffChip.TotalPJ()/base)
		geo[1] = append(geo[1], r.Page.OffChip.TotalPJ()/base)
		geo[2] = append(geo[2], r.Footprint.OffChip.TotalPJ()/base)
	}
	if len(geo[0]) > 0 {
		t.Row("geomean", "1.00",
			fmt.Sprintf("%.2f", stats.GeoMean(geo[0])),
			fmt.Sprintf("%.2f", stats.GeoMean(geo[1])),
			fmt.Sprintf("%.2f", stats.GeoMean(geo[2])))
	}
	_, err = io.WriteString(w, t.String())
	return err
}

// Figure11Rows measures stacked DRAM dynamic energy per instruction,
// normalized to the block-based design (§6.6).
func Figure11Rows(o Options) ([]EnergyRow, error) { return energyRows(o) }

// Figure11 renders stacked-DRAM energy normalized to the block-based
// design.
func Figure11(o Options, w io.Writer) error {
	rows, err := energyRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 11: stacked DRAM dynamic energy per instruction, normalized to block-based (act-pre + burst)")
	var t stats.Table
	t.Header("workload", "block", "page", "footprint")
	cell := func(b energy.Breakdown, base float64) string {
		return fmt.Sprintf("%.2f (%.2f+%.2f)", b.TotalPJ()/base, b.ActPrePJ/base, b.BurstPJ/base)
	}
	var geo [2][]float64
	for _, r := range rows {
		base := r.Block.Stacked.TotalPJ()
		if base == 0 {
			continue
		}
		t.Row(r.Workload, cell(r.Block.Stacked, base), cell(r.Page.Stacked, base), cell(r.Footprint.Stacked, base))
		geo[0] = append(geo[0], r.Page.Stacked.TotalPJ()/base)
		geo[1] = append(geo[1], r.Footprint.Stacked.TotalPJ()/base)
	}
	if len(geo[0]) > 0 {
		t.Row("geomean", "1.00",
			fmt.Sprintf("%.2f", stats.GeoMean(geo[0])),
			fmt.Sprintf("%.2f", stats.GeoMean(geo[1])))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
