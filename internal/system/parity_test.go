package system

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/synth"
	"fpcache/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/parity.golden.json from BuildDesign")

// The golden parity suite pins every paper design to frozen outputs:
// testdata/parity.golden.json holds the FunctionalResult JSON and
// metadata budget of 9 kinds x 2 workloads x 2 capacities, and the
// Figure-4 eviction densities of the page design. The file was
// written by hand-written reference implementations of the page,
// sub-blocked, Footprint and hot-page designs, and BuildDesign's
// policy compositions were checked against both before those were
// retired. BuildDesign must keep reproducing it byte for byte. A
// change that moves a number regenerates it with
// `go test -run TestGoldenParity -update ./internal/system` and says
// in its description which designs moved and why.

// The parity suite's fixed inputs.
const (
	paritySeed        = 7
	parityScale       = 1.0 / 64
	parityWarmup      = 40_000
	parityRefs        = 40_000
	parityDensityRefs = 30_000
)

// parityKinds and parityWorkloads span the designs the file pins, in
// file order (workload, kind, capacity).
var (
	parityKinds = []string{
		KindBaseline, KindBlock, KindPage, KindSubblock,
		KindFootprint, KindFootprintNoSingleton, KindFootprintUnion,
		KindHotPage, KindIdeal,
	}
	parityWorkloads  = []string{synth.WebSearch, synth.MapReduce}
	parityCapacities = []int{64, 256}
)

// parityDesign is one pinned design run. Result holds the exact bytes
// json.Marshal wrote for the FunctionalResult.
type parityDesign struct {
	Workload     string          `json:"workload"`
	Kind         string          `json:"kind"`
	PaperMB      int             `json:"paper_mb"`
	MetadataBits int64           `json:"metadata_bits"`
	Result       json.RawMessage `json:"result"`
}

// parityDensity is the ordered demanded-block count of every page the
// page design evicts over its run (the Figure 4 seam).
type parityDensity struct {
	Workload string `json:"workload"`
	Kind     string `json:"kind"`
	PaperMB  int    `json:"paper_mb"`
	Refs     int    `json:"refs"`
	Demanded []int  `json:"demanded"`
}

// parityGolden is the whole file.
type parityGolden struct {
	Seed    int64          `json:"seed"`
	Scale   float64        `json:"scale"`
	Warmup  int            `json:"warmup"`
	Refs    int            `json:"refs"`
	Designs []parityDesign `json:"designs"`
	Density parityDensity  `json:"density"`
}

var parityPath = filepath.Join("testdata", "parity.golden.json")

// render writes the file with one design per line, so a diff names
// the design that moved.
func (g parityGolden) render() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"scale\": %v,\n  \"warmup\": %d,\n  \"refs\": %d,\n  \"designs\": [\n",
		g.Seed, g.Scale, g.Warmup, g.Refs)
	for i, d := range g.Designs {
		line, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		sep := ","
		if i == len(g.Designs)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %s%s\n", line, sep)
	}
	density, err := json.Marshal(g.Density)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "  ],\n  \"density\": %s\n}\n", density)
	return b.Bytes(), nil
}

// loadParityGolden reads the file and checks it was written for the
// suite's inputs. Under -update a missing file reads as empty.
func loadParityGolden(t *testing.T) parityGolden {
	t.Helper()
	raw, err := os.ReadFile(parityPath)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return parityGolden{Seed: paritySeed, Scale: parityScale, Warmup: parityWarmup, Refs: parityRefs}
		}
		t.Fatalf("%v (generate it with -update)", err)
	}
	var g parityGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("%s: %v", parityPath, err)
	}
	if g.Seed != paritySeed || g.Scale != parityScale || g.Warmup != parityWarmup || g.Refs != parityRefs {
		t.Fatalf("%s pins seed %d scale %v warmup %d refs %d; the suite runs seed %d scale %v warmup %d refs %d",
			parityPath, g.Seed, g.Scale, g.Warmup, g.Refs, paritySeed, parityScale, parityWarmup, parityRefs)
	}
	return g
}

// storeParityGolden rewrites the file (the -update path).
func storeParityGolden(t *testing.T, g parityGolden) {
	t.Helper()
	out, err := g.render()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(parityPath, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// parityBuild builds a kind at the suite's scale.
func parityBuild(t *testing.T, kind string, paperMB int) dcache.Design {
	t.Helper()
	d, err := BuildDesign(DesignSpec{Kind: kind, PaperCapacityMB: paperMB, Scale: parityScale})
	if err != nil {
		t.Fatalf("%s/%dMB: BuildDesign: %v", kind, paperMB, err)
	}
	return d
}

// parityRun measures one design on a fresh generator at the suite's
// seed, so state never leaks between runs.
func parityRun(t *testing.T, d dcache.Design, workload, kind string, mb int) parityDesign {
	t.Helper()
	src := testutil.SynthTrace(t, workload, paritySeed, parityScale)
	res := mustFunctional(RunFunctional(d, src, parityWarmup, parityRefs))
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return parityDesign{Workload: workload, Kind: kind, PaperMB: mb, MetadataBits: d.MetadataBits(), Result: raw}
}

func TestGoldenParityAllDesigns(t *testing.T) {
	g := loadParityGolden(t)
	var got []parityDesign
	for _, wl := range parityWorkloads {
		for _, kind := range parityKinds {
			for _, mb := range parityCapacities {
				got = append(got, parityRun(t, parityBuild(t, kind, mb), wl, kind, mb))
			}
		}
	}
	if *update {
		g.Designs = got
		storeParityGolden(t, g)
	}
	if len(g.Designs) != len(got) {
		t.Fatalf("%s pins %d designs, the suite runs %d", parityPath, len(g.Designs), len(got))
	}
	for i, want := range g.Designs {
		run := got[i]
		if want.Workload != run.Workload || want.Kind != run.Kind || want.PaperMB != run.PaperMB {
			t.Fatalf("%s entry %d is %s/%s/%dMB, the suite runs %s/%s/%dMB",
				parityPath, i, want.Workload, want.Kind, want.PaperMB, run.Workload, run.Kind, run.PaperMB)
		}
		if !bytes.Equal(run.Result, want.Result) {
			t.Errorf("%s/%s/%dMB: result diverges from %s\n got: %s\nwant: %s",
				run.Workload, run.Kind, run.PaperMB, parityPath, run.Result, want.Result)
		}
		if run.MetadataBits != want.MetadataBits {
			t.Errorf("%s/%dMB: metadata budget %d, %s pins %d",
				run.Kind, run.PaperMB, run.MetadataBits, parityPath, want.MetadataBits)
		}
	}
}

// TestGoldenParityDensityObserver pins the Figure 4 seam: the page
// design's eviction-density observer fires with the same values, in
// the same order, as when the file was written.
func TestGoldenParityDensityObserver(t *testing.T) {
	g := loadParityGolden(t)
	eng := parityBuild(t, KindPage, 64).(*dcache.Engine)
	var got []int
	eng.OnEvict = func(demanded, pageBlocks int) { got = append(got, demanded) }
	RunFunctional(eng, testutil.SynthTrace(t, synth.MapReduce, paritySeed, parityScale), 0, parityDensityRefs)
	if *update {
		g.Density = parityDensity{Workload: synth.MapReduce, Kind: KindPage, PaperMB: 64, Refs: parityDensityRefs, Demanded: got}
		storeParityGolden(t, g)
	}
	want := g.Density
	if want.Workload != synth.MapReduce || want.Kind != KindPage || want.PaperMB != 64 || want.Refs != parityDensityRefs {
		t.Fatalf("%s pins densities of %s/%s/%dMB over %d refs, the suite observes %s/%s/64MB over %d",
			parityPath, want.Workload, want.Kind, want.PaperMB, want.Refs, synth.MapReduce, KindPage, parityDensityRefs)
	}
	if len(want.Demanded) == 0 {
		t.Fatal("no evictions pinned; trace too small for parity check")
	}
	if len(got) != len(want.Demanded) {
		t.Fatalf("eviction count %d, %s pins %d", len(got), parityPath, len(want.Demanded))
	}
	for i := range want.Demanded {
		if got[i] != want.Demanded[i] {
			t.Fatalf("eviction %d density %d, %s pins %d", i, got[i], parityPath, want.Demanded[i])
		}
	}
}
