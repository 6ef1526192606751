package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/control"
	"fpcache/internal/stats"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// The adaptive study is the partition study's dynamic sequel: instead
// of sweeping static memory/cache splits (or replaying a fixed resize
// schedule), it hands the split to the online controller in
// internal/control and asks whether closed-loop adaptation beats every
// static point when the workload's best split moves at run time. It
// runs the phase-shift stress workload — alternating a cache-resident
// working set with whole-dataset scans — over the same static splits as
// the partition study plus one controller-driven row, all functional
// runs at the paper's headline capacity.

// adaptiveMemPcts are the static splits the controller competes
// against (percent of stacked capacity pinned as memory).
var adaptiveMemPcts = []int{0, 25, 50, 75}

// adaptiveCapacityMB fixes the study at the paper's headline capacity,
// like the partition study.
const adaptiveCapacityMB = 256

// adaptiveKind is the base design: demand block fetch with no
// footprint prefetch, so capacity retention — the thing the split
// controls — dominates the hit ratio.
const adaptiveKind = system.KindSubblock

// Default run length when Options doesn't set one. The phase-shift
// workload switches phase every 300k references; 2M measured
// references cover several full cycles of both phases (the regime the
// controller is built for), and 400k warmup references land
// measurement at a phase boundary with the caches warm.
const (
	adaptiveMeasuredRefs = 2_000_000
	adaptiveWarmupRefs   = 400_000
)

// AdaptiveControlConfig is the controller configuration the adaptive
// row runs: one-second-scale epochs (25k refs — 12 epochs per phase),
// one epoch of cooldown after each move, and a forced reprobe after 10
// held epochs so a phase change that leaves the held score flat is
// still discovered. InitialFraction 0 starts the controller at the
// plain-cache corner; everything it gains it finds online.
func AdaptiveControlConfig() control.Config {
	return control.Config{
		EpochRefs:      25_000,
		CooldownEpochs: 1,
		HoldEpochs:     10,
	}
}

// AdaptiveRow is one point of the adaptive study: a static split or
// the controller-driven row (Adaptive true), functional-grade.
type AdaptiveRow struct {
	Workload string
	// Design is the full composite spec ("subblock+memlow:25").
	Design string
	// MemPct is the static memory share in percent (the starting
	// share for the adaptive row).
	MemPct int
	// Adaptive marks the controller-driven row.
	Adaptive bool
	// Policy is the controller's config label (adaptive row only).
	Policy string
	// MemHitRatio is the fraction of accesses served by the
	// part-of-memory region (no tag lookup).
	MemHitRatio        float64
	HitRatio           float64
	MissRatio          float64
	OffChipBytesPerRef float64
	// Resizes counts applied splits; Moves counts controller
	// decisions that changed the target fraction; Epochs counts
	// scored epochs (adaptive row only).
	Resizes uint64
	Moves   uint64
	Epochs  uint64
	// FinalFraction is the controller's split when the run ended
	// (adaptive row only).
	FinalFraction float64
}

// adaptiveOptions fills the study's run-length defaults: unlike the
// grid experiments (whose 1M-reference default is plenty), the
// controller needs several phase cycles to show its behaviour, so an
// unset Refs runs the longer tuned point. Explicit Options always win.
func adaptiveOptions(o Options) Options {
	if o.Refs == 0 {
		o.Refs = adaptiveMeasuredRefs
		if o.WarmupRefs == 0 {
			o.WarmupRefs = adaptiveWarmupRefs
		}
	}
	return o.withDefaults()
}

// AdaptiveRows runs the adaptive partition study: every static split
// plus the controller-driven row on the phase-shift workload. The
// controller is deterministic — a pure function of the telemetry
// sequence — so rows are byte-identical at any Options.Workers.
func AdaptiveRows(o Options) ([]AdaptiveRow, error) {
	o = adaptiveOptions(o)
	const wl = synth.PhaseShift
	nPer := len(adaptiveMemPcts) + 1 // static splits + the adaptive row
	rows, err := pmap(o, nPer, func(i int) (AdaptiveRow, error) {
		adaptive := i == len(adaptiveMemPcts)
		pct := 0
		var pol system.ResizePolicy
		var ctl *control.Controller
		if adaptive {
			ap := system.NewAdaptivePolicy(AdaptiveControlConfig())
			ctl = ap.Controller()
			pol = ap
		} else {
			pct = adaptiveMemPcts[i]
		}
		spec := system.DesignSpec{
			Kind:            fmt.Sprintf("%s+%s:%d", adaptiveKind, system.PartMemLow, pct),
			PaperCapacityMB: adaptiveCapacityMB,
			Scale:           o.Scale,
		}
		res, err := o.functional(spec, wl, pol)
		if err != nil {
			return AdaptiveRow{}, err
		}
		row := AdaptiveRow{
			Workload:           wl,
			Design:             res.Design,
			MemPct:             pct,
			Adaptive:           adaptive,
			HitRatio:           res.Counters.HitRatio(),
			MissRatio:          res.Counters.MissRatio(),
			OffChipBytesPerRef: res.OffChipBytesPerRef(),
		}
		if p := res.Partition; p != nil {
			if res.Refs > 0 {
				row.MemHitRatio = float64(p.MemHits) / float64(res.Refs)
			}
			row.Resizes = p.Resizes
		}
		if ctl != nil {
			row.Policy = ctl.Config().Label()
			row.Moves = ctl.Moves()
			row.Epochs = ctl.Epochs()
			row.FinalFraction = ctl.Fraction()
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// BestStatic returns the highest hit ratio among the static rows and
// the adaptive row, if present — the comparison the study exists to
// make.
func BestStatic(rows []AdaptiveRow) (best AdaptiveRow, adaptive AdaptiveRow, ok bool) {
	var haveBest, haveAdaptive bool
	for _, r := range rows {
		switch {
		case r.Adaptive:
			adaptive, haveAdaptive = r, true
		case !haveBest || r.HitRatio > best.HitRatio:
			best, haveBest = r, true
		}
	}
	return best, adaptive, haveBest && haveAdaptive
}

// Adaptive renders the adaptive partition study.
func Adaptive(o Options, w io.Writer) error {
	rows, err := AdaptiveRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Adaptive: online split controller vs static splits at %dMB (%s)\n",
		adaptiveCapacityMB, synth.PhaseShift)
	var t stats.Table
	t.Header("workload", "mem%", "memhit", "hit", "off-B/ref", "resizes", "moves", "final")
	for _, r := range rows {
		pct := fmt.Sprintf("%d", r.MemPct)
		final := ""
		if r.Adaptive {
			pct = "ctl"
			final = fmt.Sprintf("%.2f", r.FinalFraction)
		}
		t.Row(r.Workload, pct,
			fmt.Sprintf("%.1f%%", 100*r.MemHitRatio),
			fmt.Sprintf("%.3f%%", 100*r.HitRatio),
			fmt.Sprintf("%.1f", r.OffChipBytesPerRef),
			fmt.Sprintf("%d", r.Resizes),
			fmt.Sprintf("%d", r.Moves),
			final)
	}
	if _, err := io.WriteString(w, t.String()); err != nil {
		return err
	}
	if best, ad, ok := BestStatic(rows); ok {
		verdict := "beats"
		if ad.HitRatio < best.HitRatio {
			verdict = "trails"
		}
		_, err = fmt.Fprintf(w, "controller %s best static (mem%%=%d): %.3f%% vs %.3f%%\n",
			verdict, best.MemPct, 100*ad.HitRatio, 100*best.HitRatio)
	}
	return err
}
