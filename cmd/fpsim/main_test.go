package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fpcache"
	"fpcache/internal/memtrace"
	"fpcache/internal/sweep"
)

func testConfig() fpcache.Config {
	return fpcache.Config{
		Workload:        fpcache.MapReduce,
		Design:          fpcache.Footprint,
		PaperCapacityMB: 64,
		Scale:           1.0 / 64,
		Refs:            20_000,
		WarmupRefs:      10_000,
		Seed:            3,
	}
}

// TestTraceRoundTrip pins the record-and-replay contract: a run
// recorded with -trace-out and replayed with -trace-in produces a
// byte-identical FunctionalResult to the live generator run, and the
// recording is a chunk-indexed trace that passes the seekable reader's
// full verification.
func TestTraceRoundTrip(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "run.trace")

	live, err := runFunctionalPoint(cfg, "", "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := runFunctionalPoint(cfg, "", path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runFunctionalPoint(cfg, path, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	asJSON := func(v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if asJSON(recorded) != asJSON(live) {
		t.Fatalf("recording changed the run:\nlive:     %s\nrecorded: %s", asJSON(live), asJSON(recorded))
	}
	if asJSON(replayed) != asJSON(live) {
		t.Fatalf("replay diverges from live run:\nlive:   %s\nreplay: %s", asJSON(live), asJSON(replayed))
	}

	// The file must hold exactly the consumed stream: warmup + refs.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fr, err := memtrace.NewFileReader(f)
	if err != nil {
		t.Fatalf("recorded trace has no chunk index: %v", err)
	}
	if offsets, _, _ := fr.Chunks(); len(offsets) == 0 {
		t.Fatal("recorded trace has an empty chunk index")
	}
	if err := fr.Verify(); err != nil {
		t.Fatalf("recorded trace fails verification: %v", err)
	}
	if want := uint64(cfg.WarmupRefs + cfg.Refs); fr.Len() != want {
		t.Fatalf("recorded %d records, want %d (warmup %d + refs %d)", fr.Len(), want, cfg.WarmupRefs, cfg.Refs)
	}
}

// TestTraceReplayAcrossDesigns replays one recorded trace through a
// different design — the record-once, study-many workflow.
func TestTraceReplayAcrossDesigns(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "run.trace")
	if _, err := runFunctionalPoint(cfg, "", path, 0, nil); err != nil {
		t.Fatal(err)
	}
	cfg.Design = fpcache.FootprintBanshee
	res, err := runFunctionalPoint(cfg, path, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != string(fpcache.FootprintBanshee) {
		t.Fatalf("design = %q", res.Design)
	}
	if res.Refs != uint64(cfg.Refs) {
		t.Fatalf("replayed %d refs, want %d", res.Refs, cfg.Refs)
	}
}

// TestTraceReplayRejectsGarbage surfaces decode errors instead of
// silently simulating an empty trace.
func TestTraceReplayRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runFunctionalPoint(testConfig(), path, "", 0, nil); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

// writeV2Trace records total generated records of cfg's workload into
// a chunked v2 trace file.
func writeV2Trace(t *testing.T, cfg fpcache.Config, path string, total, chunk int) {
	t.Helper()
	src, _, err := fpcache.NewTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := memtrace.NewWriterV2(f)
	if err := w.SetChunkRecords(chunk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		rec, ok := src.Next()
		if !ok {
			t.Fatalf("generator exhausted after %d records", i)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipFastForward pins -skip: fast-forwarding N records via the
// chunk index is byte-identical to replaying a recording that starts
// at record N — the skipped prefix is neither simulated nor decoded.
func TestSkipFastForward(t *testing.T) {
	cfg := testConfig()
	const skip = 7_000
	dir := t.TempDir()
	total := skip + cfg.WarmupRefs + cfg.Refs

	src, _, err := fpcache.NewTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]memtrace.Record, total)
	for i := range recs {
		rec, ok := src.Next()
		if !ok {
			t.Fatalf("generator exhausted after %d records", i)
		}
		recs[i] = rec
	}
	write := func(name string, recs []memtrace.Record) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := memtrace.NewWriterV2(f)
		if err := w.SetChunkRecords(512); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	full := write("full.v2", recs)
	tail := write("tail.v2", recs[skip:])

	want, err := runFunctionalPoint(cfg, tail, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runFunctionalPoint(cfg, full, "", skip, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("-skip %d diverges from replaying the truncated trace:\nwant %s\ngot  %s", skip, wantJSON, gotJSON)
	}
}

// TestSkipPastEnd surfaces a -skip beyond the recording instead of
// silently measuring nothing.
func TestSkipPastEnd(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "run.v2")
	writeV2Trace(t, cfg, path, 2_000, 512)
	if _, err := runFunctionalPoint(cfg, path, "", 1_000_000, nil); err == nil {
		t.Fatal("-skip past the end of the trace accepted")
	}
}

// TestIntervalPointMatchesSerial pins the CLI interval path: the
// functional report block of an interval-parallel run is byte-identical
// to the serial replay's, with the plan summary appended after it, and
// a second run against the populated checkpoint cache restores
// boundaries while printing the same report. The partitioned cases
// cover fpsim's resize-policy wiring (-resize schedule, -adaptive) into
// the interval runner.
func TestIntervalPointMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.v2")
	writeV2Trace(t, testConfig(), path, testConfig().WarmupRefs+testConfig().Refs, 512)

	cases := []struct {
		name    string
		tweak   func(*fpcache.Config)
		resizes bool
	}{
		{"footprint", func(*fpcache.Config) {}, false},
		{"resize", func(c *fpcache.Config) {
			c.Design = "footprint+memcache:50"
			c.ResizeFractions, c.ResizePeriodRefs = []float64{0.25, 0.75}, 3_000
		}, true},
		{"adaptive", func(c *fpcache.Config) {
			c.Design = "subblock+memlow:0"
			c.AdaptiveResize, c.ResizePeriodRefs = true, 1_000
		}, true},
	}
	pol := sweep.Policy{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.tweak(&cfg)
			serial, err := runFunctionalPoint(cfg, path, "", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.resizes && (serial.Partition == nil || serial.Partition.Resizes == 0) {
				t.Fatalf("serial reference applied no resizes: %+v", serial.Partition)
			}
			var want bytes.Buffer
			printFunctional(&want, cfg, serial)

			ckpt := filepath.Join(dir, "ckpt-"+tc.name)
			run := func() string {
				var out bytes.Buffer
				if err := runIntervalPoint(&out, cfg, "functional", path, ckpt, 4, 0, 0, 4, pol); err != nil {
					t.Fatal(err)
				}
				return out.String()
			}
			cold, warm := run(), run()
			for name, got := range map[string]string{"cold": cold, "warm": warm} {
				if !strings.HasPrefix(got, want.String()) {
					t.Fatalf("%s interval report does not start with the serial block:\nserial:\n%s\ngot:\n%s", name, want.String(), got)
				}
				rest := strings.TrimPrefix(got, want.String())
				for _, line := range strings.Split(strings.TrimRight(rest, "\n"), "\n") {
					if !strings.HasPrefix(line, "interval") {
						t.Fatalf("%s run emitted a non-interval extra line %q", name, line)
					}
				}
			}
			if !strings.Contains(warm, "restored 4") {
				t.Fatalf("warm run did not restore every boundary checkpoint:\n%s", warm)
			}
		})
	}
}

// TestMain runs the test binary as the fpsim command itself when
// FPSIM_TEST_ARGS holds a newline-separated argument list, so the CLI
// tests drive the real flag parsing, output and exit status.
func TestMain(m *testing.M) {
	if args := os.Getenv("FPSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"fpsim"}, strings.Split(args, "\n")...)
		main()
	}
	os.Exit(m.Run())
}

// fpsim runs the command with args and returns its stdout, stderr and
// exit status.
func fpsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FPSIM_TEST_ARGS="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestFailureExitStatus pins how fpsim fails: bad capacities and
// stdin replays that would need a second pass over stdin (several
// points, or a checkpoint) are rejected before the sweep starts, and a
// faulted point is named on stderr while the surviving points still
// print, with exit status 1 either way.
func TestFailureExitStatus(t *testing.T) {
	small := []string{"-workload", fpcache.MapReduce, "-scale", "0.015625", "-refs", "20000", "-warmup", "10000"}
	pageOnly, stderr, code := fpsim(t, append(small, "-design", "page", "-capacity", "64")...)
	if code != 0 || pageOnly == "" {
		t.Fatalf("reference page run: exit %d, stdout %q, stderr %q", code, pageOnly, stderr)
	}
	snap := filepath.Join(t.TempDir(), "w.snap")
	cases := []struct {
		name   string
		args   []string
		stdout string
		stderr []string
	}{
		{"zero capacity", []string{"-design", "footprint", "-capacity", "0"}, "", []string{`bad capacity "0"`}},
		{"negative capacity", []string{"-design", "footprint", "-capacity", "64,-1"}, "", []string{`bad capacity "-1"`}},
		{"stdin two points", []string{"-design", "page,footprint", "-capacity", "64", "-trace-in", "-"},
			"", []string{"-trace-in - streams stdin once", "got 2 simulation points"}},
		{"stdin two points parallel", []string{"-design", "page,footprint", "-capacity", "64", "-trace-in", "-", "-j", "2"},
			"", []string{"-trace-in - streams stdin once", "got 2 simulation points"}},
		{"stdin checkpoint", []string{"-design", "footprint", "-capacity", "64", "-trace-in", "-", "-checkpoint", snap},
			"", []string{"-checkpoint/-restore replay a trace file"}},
		{"point panic", []string{"-design", "page,footprint", "-capacity", "64", "-fault-spec", "point:panic:point=1"},
			pageOnly, []string{"/footprint/64MB failed", "[panic]"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := fpsim(t, append(small, tc.args...)...)
			if code != 1 {
				t.Errorf("exit status %d, want 1", code)
			}
			if stdout != tc.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout, tc.stdout)
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr does not contain %q:\n%s", want, stderr)
				}
			}
		})
	}
}

// TestProfileFlags runs fpsim with -cpuprofile and -memprofile and
// checks that both profiles are written as gzipped pprof data.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-mode", "timing", "-workload", fpcache.MapReduce, "-capacity", "64",
		"-refs", "20000", "-warmup", "10000", "-cpuprofile", cpu, "-memprofile", mem}
	stdout, stderr, code := fpsim(t, args...)
	if code != 0 {
		t.Fatalf("fpsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	if !strings.Contains(stdout, "IPC") {
		t.Errorf("fpsim printed no timing report:\n%s", stdout)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: %d bytes, want a non-empty gzipped pprof profile", filepath.Base(path), len(data))
		}
	}
}

// TestExecTraceFlag runs fpsim with -exectrace and checks that a
// non-empty runtime execution trace is written.
func TestExecTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	args := []string{"-mode", "timing", "-workload", fpcache.MapReduce, "-capacity", "64",
		"-refs", "20000", "-warmup", "10000", "-exectrace", path}
	if _, stderr, code := fpsim(t, args...); code != 0 {
		t.Fatalf("fpsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Execution traces open with a "go 1.N trace" header.
	if !strings.HasPrefix(string(data), "go 1.") || len(data) < 64 {
		t.Errorf("%s: %d bytes, want a non-empty execution trace", filepath.Base(path), len(data))
	}
}
