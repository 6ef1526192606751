// Command fplint runs the repository's custom static-analysis suite
// (internal/lint): determinism, hotpath, faulterr, snapmeta,
// workershare, and allocbudget, over the whole program at once, so the
// hotpath and workershare call-graph closures and the allocbudget
// escape scan see across packages:
//
//	fplint ./...
//	fplint -analyzers hotpath ./...
//	fplint -format sarif ./...      # SARIF 2.1.0 on stdout
//	fplint -sarif out.sarif ./...   # text on stdout, SARIF to a file
//	fplint -list
//
// Findings state their rewrite in the message ("use %w", "iterate
// slices.Sorted(maps.Keys(m))", "delete the stale directive"). Runs
// are strict about suppressions: an //fplint:ignore that suppresses
// nothing is itself a finding (disable with -strict-ignores=false).
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fpcache/internal/lint"
	"fpcache/internal/lint/allocbudget"
	"fpcache/internal/lint/determinism"
	"fpcache/internal/lint/faulterr"
	"fpcache/internal/lint/hotpath"
	"fpcache/internal/lint/snapmeta"
	"fpcache/internal/lint/workershare"
)

// scopes restricts analyzers to the packages whose contracts they
// enforce; analyzers without an entry run everywhere. The lists mirror
// DESIGN.md §12.
var scopes = map[string][]string{
	"determinism": {
		"fpcache/internal/system",
		"fpcache/internal/experiments",
		"fpcache/internal/sweep",
		"fpcache/internal/dcache",
		"fpcache/internal/stats",
		"fpcache/internal/control",
		"fpcache/internal/faultinject",
	},
	"faulterr": {
		"fpcache/internal/snap",
		"fpcache/internal/memtrace",
		"fpcache/internal/system",
		"fpcache/internal/control",
	},
	"workershare": {
		"fpcache/internal/sweep",
		"fpcache/internal/system",
		"fpcache/internal/experiments",
		"fpcache/internal/control",
		"fpcache/internal/faultinject",
		"fpcache/cmd/fpsim",
	},
}

// Suite returns the fplint analyzers with their production scopes
// applied. Shared with cmd/fplint's tests.
func suite() []*lint.Analyzer {
	all := []*lint.Analyzer{
		determinism.Analyzer,
		hotpath.Analyzer,
		faulterr.Analyzer,
		snapmeta.Analyzer,
		workershare.Analyzer,
		allocbudget.Analyzer,
	}
	out := make([]*lint.Analyzer, len(all))
	for i, a := range all {
		scoped := *a
		if paths, ok := scopes[a.Name]; ok {
			scoped.Match = matcher(paths)
		}
		out[i] = &scoped
	}
	return out
}

func matcher(paths []string) func(string) bool {
	return func(pkg string) bool {
		for _, p := range paths {
			if pkg == p {
				return true
			}
		}
		return false
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("fplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run")
	dir := fs.String("C", ".", "directory to resolve package patterns in (the module root)")
	format := fs.String("format", "text", "stdout format: text or sarif")
	sarifPath := fs.String("sarif", "", "also write a SARIF 2.1.0 report to this file")
	strictIgnores := fs.Bool("strict-ignores", true,
		"treat //fplint:ignore directives that suppress nothing as findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := suite()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(stderr, "fplint: unknown analyzer %q (try -list)\n", name)
			return 2
		}
		analyzers = sel
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "fplint: unknown -format %q (want text or sarif)\n", *format)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// LoadShared memoizes the `go list -export -deps -json` enumeration
	// and the module-wide type-check per (dir, patterns), so in-process
	// callers running several stages (driver + tests, or repeated
	// invocations in one CI step) pay for the load once.
	prog, err := lint.LoadShared(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "fplint: %v\n", err)
		return 2
	}
	diags, audit, err := lint.RunProgramAudit(prog, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "fplint: %v\n", err)
		return 2
	}
	if *strictIgnores {
		enabled := map[string]bool{}
		for _, a := range analyzers {
			enabled[a.Name] = true
		}
		diags = append(diags, lint.StaleIgnores(audit, enabled)...)
		lint.SortDiagnostics(diags)
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintf(stderr, "fplint: %v\n", err)
			return 2
		}
		werr := lint.WriteSARIF(f, prog.RootDir, analyzers, diags)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "fplint: writing %s: %v\n", *sarifPath, werr)
			return 2
		}
	}
	switch *format {
	case "sarif":
		if err := lint.WriteSARIF(stdout, prog.RootDir, analyzers, diags); err != nil {
			fmt.Fprintf(stderr, "fplint: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s\n", d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fplint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
