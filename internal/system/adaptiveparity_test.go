package system

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"fpcache/internal/control"
	"fpcache/internal/memtrace"
	"fpcache/internal/synth"
	"fpcache/internal/testutil"
)

// The adaptive-parity suite extends every run-mode equivalence the
// repo pins for static resize schedules to the online controller: the
// controller is a pure function of the telemetry sequence, and
// telemetry is sampled at the same measured-reference boundaries in
// every runner, so functional, timing, interval-parallel, and
// snapshot-interrupted runs must all make the same decisions at the
// same references.

// adaptiveTestConfig is a controller tuned to act within a few
// thousand references: tiny epochs, short hold, one-epoch cooldown.
func adaptiveTestConfig() control.Config {
	return control.Config{
		EpochRefs:      1_000,
		CooldownEpochs: 1,
		HoldEpochs:     4,
	}
}

// adaptiveTestSpec is a partitioned design whose split the controller
// drives from the plain-cache corner.
func adaptiveTestSpec(scale float64) DesignSpec {
	return DesignSpec{Kind: "subblock+memlow:0", PaperCapacityMB: 64, Scale: scale}
}

// TestAdaptiveTimingMatchesFunctional pins functional/timing parity
// under the adaptive controller: the event-driven run drives the same
// controller at the same epoch boundaries, so functional counters,
// traffic, and the applied resize sequence must be byte-identical.
func TestAdaptiveTimingMatchesFunctional(t *testing.T) {
	const (
		scale  = 1.0 / 64
		warmup = 4_000
		refs   = 12_000
	)
	spec := adaptiveTestSpec(scale)

	d1, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	fres := mustFunctional(RunFunctionalResized(d1, snapTrace(t, scale), warmup, refs,
		NewAdaptivePolicy(adaptiveTestConfig())))
	if fres.Partition == nil || fres.Partition.Resizes == 0 {
		t.Fatalf("controller applied no resizes in the functional run: %+v", fres.Partition)
	}

	d2, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	tpol := NewAdaptivePolicy(adaptiveTestConfig())
	tres := mustTiming(RunTiming(d2, snapTrace(t, scale), TimingConfig{
		Cores: 8, MLP: 2, WarmupRefs: warmup, MaxRefs: refs, Resize: tpol,
	}))

	fj, _ := json.Marshal(fres.Counters)
	tj, _ := json.Marshal(tres.Counters)
	if string(fj) != string(tj) {
		t.Fatalf("counters diverge under adaptive control\nfunctional: %s\ntiming:     %s", fj, tj)
	}
	if fres.OffChip.ReadBursts != tres.OffChip.ReadBursts ||
		fres.OffChip.WriteBursts != tres.OffChip.WriteBursts {
		t.Fatalf("off-chip traffic diverges: functional %d/%d, timing %d/%d",
			fres.OffChip.ReadBursts, fres.OffChip.WriteBursts,
			tres.OffChip.ReadBursts, tres.OffChip.WriteBursts)
	}
	if pf, pt := fres.Partition, tres.Partition; pt == nil ||
		pf.Resizes != pt.Resizes || pf.MemHits != pt.MemHits {
		t.Fatalf("partition state diverges\nfunctional: %+v\ntiming:     %+v", pf, pt)
	}
}

// TestAdaptiveSnapshotMidEpochParity pins checkpoint transparency for
// the controller: interrupting a measured run in the middle of an
// epoch — snapshotting the state (including the controller's window
// ring and climb registers), restoring into a fresh design, and
// finishing — must merge to the uninterrupted run's result byte for
// byte.
func TestAdaptiveSnapshotMidEpochParity(t *testing.T) {
	const (
		scale  = 1.0 / 64
		warmup = 4_000
		refs   = 12_000
		// cut lands mid-epoch: not a multiple of EpochRefs (1000).
		cut = 6_500
	)
	spec := adaptiveTestSpec(scale)

	d, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	full := NewSimState(d)
	full.SetPolicy(NewAdaptivePolicy(adaptiveTestConfig()))
	if err := full.Warm(snapTrace(t, scale), warmup); err != nil {
		t.Fatal(err)
	}
	want := mustFunctional(full.Measure(snapTraceAt(t, scale, warmup), refs))
	if want.Partition == nil || want.Partition.Resizes == 0 {
		t.Fatalf("controller applied no resizes in the reference run: %+v", want.Partition)
	}

	d1, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	first := NewSimState(d1)
	first.SetPolicy(NewAdaptivePolicy(adaptiveTestConfig()))
	if err := first.Warm(snapTrace(t, scale), warmup); err != nil {
		t.Fatal(err)
	}
	r1 := mustFunctional(first.Measure(snapTraceAt(t, scale, warmup), cut))
	var buf bytes.Buffer
	if err := first.Snapshot(&buf, snapMeta(warmup)); err != nil {
		t.Fatal(err)
	}

	d2, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	second := NewSimState(d2)
	second.SetPolicy(NewAdaptivePolicy(adaptiveTestConfig()))
	if err := second.Restore(bytes.NewReader(buf.Bytes()), snapMeta(warmup)); err != nil {
		t.Fatal(err)
	}
	r2 := mustFunctional(second.MeasureFrom(snapTraceAt(t, scale, warmup+cut), refs-cut, cut))

	merged := MergeFunctional([]FunctionalResult{r1, r2})
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(merged)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("mid-epoch interrupted run diverges\nuninterrupted: %s\nmerged:        %s", wantJSON, gotJSON)
	}
}

// TestAdaptiveIntervalParity pins the interval-parallel contract under
// the controller: the merged result equals the serial adaptive run at
// every worker count, including the applied resize count.
func TestAdaptiveIntervalParity(t *testing.T) {
	const (
		scale  = 1.0 / 64
		warmup = 2_000
		refs   = 12_000
	)
	spec := adaptiveTestSpec(scale)
	cfg := adaptiveTestConfig()
	tr := intervalTrace(t, synth.WebSearch, 11, scale, refs, 256)

	d, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	serialSrc := intervalTrace(t, synth.WebSearch, 11, scale, refs, 256)
	serial := mustFunctional(RunFunctionalResized(d, serialSrc, warmup, 0, NewAdaptivePolicy(cfg)))
	if serial.Partition == nil || serial.Partition.Resizes == 0 {
		t.Fatalf("serial adaptive reference applied no resizes: %+v", serial.Partition)
	}
	want := testutil.AsJSON(t, serial)

	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		rep, err := RunIntervals(tr, IntervalOptions{
			Spec: spec, Workload: synth.WebSearch, Seed: 11, Scale: scale,
			WarmupRefs: warmup, Intervals: 5, Workers: workers,
			Policy: func() ResizePolicy { return NewAdaptivePolicy(cfg) },
		})
		if err != nil {
			t.Fatalf("j%d: %v", workers, err)
		}
		if got := testutil.AsJSON(t, rep.Functional); got != want {
			t.Fatalf("j%d: adaptive merged result diverges from serial\nserial: %s\nmerged: %s", workers, want, got)
		}
	}
}

// snapTraceAt is snapTrace fast-forwarded past n records.
func snapTraceAt(t *testing.T, scale float64, n int) memtrace.Source {
	t.Helper()
	return testutil.SynthTraceAt(t, synth.WebSearch, 11, scale, n)
}
