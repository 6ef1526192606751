package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/rows.golden.json from the current code")

// goldenOptions is the one fixed run the golden file pins: seed 1,
// 10k measured references, default scale, workloads and capacities.
// Workers is fixed (not GOMAXPROCS) because the intervals rows record
// it; every other field is identical at any worker count.
func goldenOptions() Options {
	return Options{Seed: 1, Refs: 10_000, Workers: 2}
}

// wallClockFields are the row fields that measure wall-clock time
// (IntervalRow.Seconds/Speedup); they are stripped before comparing.
var wallClockFields = map[string]bool{"seconds": true, "speedup": true}

func stripWallClock(v any) any {
	switch v := v.(type) {
	case []any:
		for i := range v {
			v[i] = stripWallClock(v[i])
		}
	case map[string]any:
		for k, x := range v {
			if wallClockFields[k] {
				delete(v, k)
			} else {
				v[k] = stripWallClock(x)
			}
		}
	}
	return v
}

// goldenRows renders the typed rows of every registered experiment, in
// paper order, as indented JSON with the wall-clock fields removed.
// Numbers pass through json.Number, so every digit the encoder wrote
// survives the strip.
func goldenRows(t *testing.T) []byte {
	t.Helper()
	type entry struct {
		Name string `json:"name"`
		Rows any    `json:"rows"`
	}
	var all []entry
	for _, name := range Names() {
		rows, err := Rows(name, goldenOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := json.Marshal(rows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var generic any
		if err := dec.Decode(&generic); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all = append(all, entry{name, stripWallClock(generic)})
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestRowsGolden pins every simulated number of every experiment: the
// rows at goldenOptions must equal testdata/rows.golden.json byte for
// byte. A change that moves a number regenerates the file with
// `go test -run TestRowsGolden -update ./internal/experiments` and
// says in its description which rows moved and why.
func TestRowsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all experiments")
	}
	got := goldenRows(t)
	path := filepath.Join("testdata", "rows.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("rows differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("rows differ from %s in length: %d lines, want %d", path, len(gotLines), len(wantLines))
}
