package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// Self-test of the benchmark at the reduced sizes. Run it with
//
//	cd perfbench && go test .

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: defaultSeed, seconds: 0.01, trace: trace,
		short: true, outDir: t.TempDir(), workers: runtime.NumCPU(),
	}
}

// lastResult parses the run's last output line, which must be the
// result object with exactly its four keys.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %q", last)
	}
	if len(keys) != 4 {
		t.Fatalf("result has keys %v, want correct/attempted/failed/metrics", sortedKeys(keys))
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestEveryMetricPrinted runs every workload untraced and traced and
// checks that each metric BENCHMARK.json names is printed, with its
// unit, both on a report line and in the result line.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			rep, err := run(shortConfig(t, wl.Name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !rep.Correct {
				t.Fatalf("%s trace=%v failed its checks:\n%s", wl.Name, trace, out.String())
			}
			res := lastResult(t, out.String())
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + ` `)
				if !line.MatchString(out.String()) {
					t.Errorf("%s trace=%v: no report line for %s in %s", wl.Name, trace, m.Name, m.Unit)
				}
			}
			if !strings.Contains(out.String(), "fail_frac") {
				t.Errorf("%s trace=%v: fail_frac not printed", wl.Name, trace)
			}
		}
	}
}

// TestCorruptedExpectedFails flips one pinned value per workload and
// checks the run then fails.
func TestCorruptedExpectedFails(t *testing.T) {
	f, err := readPinned("expected/short.json", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		sec := f[wl]
		label := sortedKeys(sec)[0]
		corrupt := pinnedFile{wl: {}}
		for k, v := range sec {
			corrupt[wl][k] = v
		}
		// Bump the first digit run of the pinned output.
		digits := regexp.MustCompile(`[0-9]+`)
		loc := digits.FindIndex(sec[label])
		if loc == nil {
			t.Fatalf("%s %s: no number to corrupt", wl, label)
		}
		raw := append([]byte{}, sec[label][:loc[0]]...)
		raw = append(raw, '9')
		raw = append(raw, sec[label][loc[0]:]...)
		corrupt[wl][label] = raw
		data, err := json.Marshal(corrupt)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "corrupt.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := shortConfig(t, wl, false)
		cfg.expected = path
		var out bytes.Buffer
		rep, err := run(cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		res := lastResult(t, out.String())
		if rep.Correct || res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted pinned %s did not fail the run:\n%s", wl, label, out.String())
		}
	}
}

// TestLayerMapCoversMetrics checks that layers.json maps exactly the
// per-layer metrics BENCHMARK.json names.
func TestLayerMapCoversMetrics(t *testing.T) {
	spec := loadSpec(t)
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Layers map[string]json.RawMessage `json:"layers"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != len(spec.PerLayer) {
		t.Errorf("layers.json maps %d metrics, BENCHMARK.json names %d", len(m.Layers), len(spec.PerLayer))
	}
	for _, l := range spec.PerLayer {
		if _, ok := m.Layers[l.Name]; !ok {
			t.Errorf("per-layer metric %s has no entry in layers.json", l.Name)
		}
	}
}
