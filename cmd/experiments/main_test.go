package main

import (
	"os"
	"testing"
)

// TestUnknownFormatIsUsageError: a -format other than plain or csv
// exits 2 before any experiment runs (fig7 would take seconds).
func TestUnknownFormatIsUsageError(t *testing.T) {
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"experiments", "-fig", "fig7", "-format", "json", "-q"}
	if code := run(); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}
