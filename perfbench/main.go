// Command perfbench is the fpcache simulator's benchmark. It drives the
// simulator only through the public functions of its layers (synth,
// memtrace, dcache, dram, sim, cpu, system, sweep, control) and reports
// host cost end to end and layer by layer.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload functional-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - functional-sweep: a figure-5-shaped sweep of 7 workloads x 5 designs
//     x 3 capacities, functional mode, through sweep at -j nproc.
//   - timing: RunTiming points (web-search, mapreduce x footprint, page,
//     block at 256MB) at -j nproc.
//   - trace-intervals: a generated data-serving v2 trace run through
//     RunIntervals in timing mode, a cold pass storing every boundary
//     checkpoint and a warm pass restoring them.
//
// Every workload is a closed loop: each of the nproc workers starts its
// next simulation point only when its previous one completes. Whole
// rounds of points repeat until --seconds have passed.
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1
// it runs one untraced round, one traced round and a layer-by-layer
// replay of the workload's reference stream, prints the per-layer
// metrics and writes the span file. The last line of standard output
// is always one JSON object: correct, attempted, failed and metrics.
// Any wrong simulated output fails its point, and a run with a failed
// point exits 1.
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles of a run,
// so a workload can be profiled without a separate harness:
//
//	bash perfbench/run.sh --workload timing --seconds 10 -cpuprofile .bench_build/cpu.pprof
//	go tool pprof -top .bench_build/bin/perfbench .bench_build/cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short selects the reduced sizes the self-test runs at.
	short bool
	// expected overrides the embedded pinned-output file (the
	// self-test's corrupted copy).
	expected string
	// writeExpected rewrites the pinned outputs of this workload in the
	// given file instead of checking them (seed 1 only).
	writeExpected string
	// outDir receives the run record, the span file and scratch state
	// (warm-state caches).
	outDir     string
	cpuprofile string
	memprofile string
	// workers is the closed-loop client count: nproc.
	workers int
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run measured: the result line plus what the
// human-readable lines and the run record carry beside it.
type report struct {
	result
	// samples states the sample count behind each metric.
	samples map[string]int
	// extra holds figures printed with their units but not part of the
	// result line (fail_frac, interval_ipc_err_pct).
	extra map[string]metric
	// failures are the first output-check failures, for diagnosis.
	failures []string
}

func newReport() *report {
	return &report{
		result:  result{Metrics: map[string]metric{}},
		samples: map[string]int{},
		extra:   map[string]metric{},
	}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if samples > 0 {
		r.samples[name] = samples
	}
}

// fail records one failed output check.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	cfg := config{workers: runtime.NumCPU()}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed (pinned outputs are checked at seed 1)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed phase measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced mode and prints per-layer metrics")
	flag.BoolVar(&cfg.short, "short", false, "run at the reduced self-test sizes")
	flag.StringVar(&cfg.writeExpected, "write-expected", "", "rewrite this workload's pinned outputs into FILE (seed 1)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the run record, spans and scratch state")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to FILE")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile at the end of the run to FILE")
	flag.Parse()
	cfg.trace = traceFlag != 0

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one invocation, prints its report to w and returns it.
// An error means the benchmark could not run at all; a run whose
// outputs fail a check returns a report with Correct false.
func run(cfg config, w io.Writer) (*report, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	env := environment(cfg)
	for _, kv := range env {
		fmt.Fprintf(w, "env %s=%s\n", kv[0], kv[1])
	}

	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var rep *report
	if cfg.trace {
		rep, err = b.runTraced(w)
	} else {
		rep, err = b.runUntraced(w)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	if rep.Attempted > 0 {
		rep.extra["fail_frac"] = metric{Value: float64(rep.Failed) / float64(rep.Attempted), Unit: "ratio"}
		rep.samples["fail_frac"] = rep.Attempted
	}

	if cfg.memprofile != "" {
		if err := writeHeapProfile(cfg.memprofile); err != nil {
			return nil, err
		}
	}
	printReport(w, rep)
	if err := writeRecord(cfg, env, rep); err != nil {
		return nil, err
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return rep, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport writes the human-readable lines: every metric with its
// unit and sample count, the extra figures, and any failed checks.
func printReport(w io.Writer, rep *report) {
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "metric %-34s %16.6g %-8s samples=%d\n", name, m.Value, m.Unit, rep.samples[name])
	}
	for _, name := range sortedKeys(rep.extra) {
		m := rep.extra[name]
		fmt.Fprintf(w, "figure %-34s %16.6g %-8s samples=%d\n", name, m.Value, m.Unit, rep.samples[name])
	}
	for _, f := range rep.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	fmt.Fprintf(w, "points attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
}

// writeRecord stores the run's environment beside its metrics.
func writeRecord(cfg config, env [][2]string, rep *report) error {
	rec := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"short":    cfg.short,
		"env":      envMap(env),
		"result":   rep.result,
		"extra":    rep.extra,
		"samples":  rep.samples,
		"failures": rep.failures,
		"finished": time.Now().UTC().Format(time.RFC3339),
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace))
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(buf, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
