package faulterr_test

import (
	"testing"

	"fpcache/internal/lint/faulterr"
	"fpcache/internal/lint/linttest"
)

func TestFixtures(t *testing.T) {
	linttest.Run(t, "testdata/a", faulterr.Analyzer)
}

func TestIgnoreDirective(t *testing.T) {
	linttest.Run(t, "testdata/ignored", faulterr.Analyzer)
}

// TestWrapVerbSuggestedFix pins the rewrite advice every Errorf
// finding carries in its message.
func TestWrapVerbSuggestedFix(t *testing.T) {
	advice := `fmt\.Errorf without %w.*use %w for the error argument`
	linttest.RunExpect(t, "testdata/fix", faulterr.Analyzer, []string{
		advice, advice, advice, `bare errors\.New`,
	})
}

func TestFixFixtureWants(t *testing.T) {
	linttest.Run(t, "testdata/fix", faulterr.Analyzer)
}
