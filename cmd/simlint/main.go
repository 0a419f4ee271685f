// Command simlint runs the repository's custom static analyzer over
// the module. It enforces the determinism, unit-safety and ownership
// contract documented in DESIGN.md §9 ("Determinism contract"):
// nowallclock, noglobalrand, maporder, floateq, unitliteral and
// packetown, plus the directive meta-diagnostics (simlint,
// unusedallow).
//
// Usage:
//
//	simlint [-C dir] [./...]
//
// simlint always lints the whole module containing dir (the module is
// small; whole-module analysis is what makes the type-based rules
// sound), so the conventional ./... pattern is accepted and implied.
//
// Findings print as file:line: rule: message. The exit status is 1
// when anything is found.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tlb/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "directory inside the module to lint")
	flag.Parse()

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}
