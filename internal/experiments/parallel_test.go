package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fpcache/internal/fault"
	"fpcache/internal/synth"
)

// TestPmapIsolatesPanicWithoutTolerance: with no fault-tolerance knob
// set, a panicking point still runs isolated — pmap returns a typed
// error naming the point instead of crashing the process.
func TestPmapIsolatesPanicWithoutTolerance(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := Options{Workers: workers}
		out, err := pmap(o, 6, func(i int) (int, error) {
			if i == 2 {
				panic("design bug")
			}
			return i, nil
		})
		if !errors.Is(err, fault.ErrPointPanic) {
			t.Fatalf("workers=%d: err = %v, want a wrapped fault.ErrPointPanic", workers, err)
		}
		if !strings.Contains(err.Error(), "point 2") {
			t.Fatalf("workers=%d: error does not name the point: %v", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: failed sweep leaked results: %v", workers, out)
		}
	}
}

// TestSerialParallelByteIdentical is the determinism regression test
// for the sweep port: the same Options must render byte-identical
// output whether points run on one worker or many. It covers a
// functional grid driver (figure5), a histogram driver with eviction
// callbacks (figure4), a predictor driver (figure8), and the
// multi-study ablation renderer.
func TestSerialParallelByteIdentical(t *testing.T) {
	o := tiny()
	o.Refs = 20_000
	o.WarmupRefs = 20_000
	for _, name := range []string{"figure4", "figure5", "figure8", "ablation"} {
		var serial, parallel bytes.Buffer
		o.Workers = 1
		if err := Run(name, o, &serial); err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		o.Workers = 8
		if err := Run(name, o, &parallel); err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if serial.String() != parallel.String() {
			t.Fatalf("%s output differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, serial.String(), parallel.String())
		}
		if serial.Len() == 0 {
			t.Fatalf("%s rendered nothing", name)
		}
	}
}

// TestSerialParallelTimingIdentical covers the event-driven path: a
// timing experiment must also be independent of the worker count.
func TestSerialParallelTimingIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("timing determinism in -short mode")
	}
	o := tiny()
	o.Workloads = []string{synth.WebSearch}
	o.Capacities = []int{64}
	o.TimingRefs = 5_000
	o.WarmupRefs = 20_000

	run := func(workers int) string {
		var buf bytes.Buffer
		o.Workers = workers
		if err := Run("figure6", o, &buf); err != nil {
			t.Fatalf("figure6 workers=%d: %v", workers, err)
		}
		return buf.String()
	}
	if s, p := run(1), run(6); s != p {
		t.Fatalf("figure6 output differs between workers=1 and workers=6:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// TestRowsRegistryMatchesRenderers ensures every registered
// experiment exposes typed rows for fpbench -json.
func TestRowsRegistryMatchesRenderers(t *testing.T) {
	for _, name := range Names() {
		e := registry[name]
		if e.render == nil || e.rows == nil {
			t.Fatalf("experiment %q missing render or rows func", name)
		}
	}
	o := tiny()
	o.Workloads = []string{synth.WebSearch}
	o.Capacities = []int{64}
	rows, err := Rows("table4", o)
	if err != nil {
		t.Fatal(err)
	}
	if rs, ok := rows.([]Table4Row); !ok || len(rs) != 1 {
		t.Fatalf("table4 rows = %T %v", rows, rows)
	}
	if _, err := Rows("bogus", o); err == nil {
		t.Fatal("unknown experiment accepted by Rows")
	}
}
