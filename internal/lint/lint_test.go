package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// expectedFindings parses //WANT markers out of a fixture tree. A
// marker trails the offending line and names the rule(s) expected on
// that line, space-separated, one entry per expected finding:
//
//	time.Sleep(time.Millisecond) //WANT nowallclock
//
// The returned strings have the form "file:line: rule", with file
// relative to root.
func expectedFindings(t *testing.T, root string) []string {
	t.Helper()
	var want []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, marker, ok := strings.Cut(line, "//WANT ")
			if !ok {
				continue
			}
			for _, rule := range strings.Fields(marker) {
				want = append(want, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), i+1, rule))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	return want
}

func runLint(t *testing.T, root string) []string {
	t.Helper()
	findings, err := Run(root)
	if err != nil {
		t.Fatalf("lint.Run(%s): %v", root, err)
	}
	got := make([]string, len(findings))
	for i, f := range findings {
		got[i] = fmt.Sprintf("%s:%d: %s", f.File, f.Line, f.Rule)
	}
	sort.Strings(got)
	return got
}

// cleanFixtures are the loader edge cases TestCleanFixtures runs.
var cleanFixtures = []string{"buildtags", "nosim", "nestedtestdata"}

// TestFixtures checks every rule in ruleTable against its fixture
// module testdata/<rule>, plus the directives and testfiles fixtures:
// the findings must match the //WANT markers exactly — no extra
// findings, none missing — and a rule's fixture must expect that rule
// at least once. Every directory under testdata must be one of these
// or a clean fixture, so a rule cannot ship without a fixture and a
// deleted rule cannot leave one behind.
func TestFixtures(t *testing.T) {
	fixtures := append(ruleNames(), "directives", "testfiles")
	known := map[string]bool{}
	for _, fix := range append(fixtures, cleanFixtures...) {
		known[fix] = true
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("testdata/%s is not a fixture of any rule or test", e.Name())
		}
	}
	for _, fix := range fixtures {
		t.Run(fix, func(t *testing.T) {
			root := filepath.Join("testdata", fix)
			want := expectedFindings(t, root)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no //WANT markers", fix)
			}
			if _, isRule := ruleTable[fix]; isRule && !slices.ContainsFunc(want, func(w string) bool {
				return strings.HasSuffix(w, ": "+fix)
			}) {
				t.Fatalf("fixture %s has no //WANT %s marker", fix, fix)
			}
			got := runLint(t, root)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("findings mismatch\ngot:\n%s\nwant:\n%s",
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestRepoIsClean is the gate the Makefile's lint target relies on: the
// repository itself must lint clean.
func TestRepoIsClean(t *testing.T) {
	if got := runLint(t, "../.."); len(got) != 0 {
		t.Errorf("repository has %d simlint finding(s):\n%s", len(got), strings.Join(got, "\n"))
	}
}

// copyModule copies go.mod and every .go file of the module at src
// into dst — test files included, since they are linted too —
// preserving the directory layout and skipping testdata (the fixtures
// are separate modules).
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != src && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReintroducingWallClockFails proves, end to end on one copy of the
// real tree, that the nowallclock rule guards it and that an allow
// annotation is what holds a finding back: dropping a time.Now call
// into internal/netem and stripping internal/sim/clock.go's two
// directives must each surface in the same lint run. That every other
// annotation in the tree is load-bearing needs no re-lint per
// annotation: one that suppresses nothing is itself a finding
// (unusedallow, not suppressible, pinned by the directives fixture), so
// TestRepoIsClean already fails on it.
func TestReintroducingWallClockFails(t *testing.T) {
	if testing.Short() {
		t.Skip("re-lints the repository")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyModule(t, root, tmp)
	bad := `package netem

import "time"

func wallClock() int64 { return time.Now().UnixNano() }
`
	if err := os.WriteFile(filepath.Join(tmp, "internal/netem/zz_wallclock.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	const seam = "internal/sim/clock.go"
	clock, err := os.ReadFile(filepath.Join(tmp, seam))
	if err != nil {
		t.Fatal(err)
	}
	stripped := regexp.MustCompile(`(?m)^\s*//simlint:allow nowallclock\(.*\)\n`).ReplaceAll(clock, nil)
	if err := os.WriteFile(filepath.Join(tmp, seam), stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := Run(tmp)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, f := range findings {
		if f.Rule == "nowallclock" {
			got[f.File]++
		}
	}
	if got["internal/netem/zz_wallclock.go"] != 1 {
		t.Errorf("time.Now in internal/netem went undetected; findings: %v", findings)
	}
	if got[seam] != 2 {
		t.Errorf("stripping %s's two allow directives surfaced %d nowallclock findings there, want 2; findings: %v",
			seam, got[seam], findings)
	}
}

// TestCleanFixtures covers loader edge cases that must produce zero
// findings: build-tag- and GOOS-excluded files are invisible, a module
// with no simulation packages loads fine, and a nested testdata tree
// is another module's fixture, not ours.
func TestCleanFixtures(t *testing.T) {
	for _, fix := range cleanFixtures {
		t.Run(fix, func(t *testing.T) {
			got := runLint(t, filepath.Join("testdata", fix))
			if len(got) != 0 {
				t.Errorf("expected no findings, got:\n%s", strings.Join(got, "\n"))
			}
		})
	}
}

// BenchmarkSimlint tracks the analyzer's wall clock over the whole
// repository (every rule, test files included); `make bench` records
// it in the newest BENCH_<pr>.json.
func BenchmarkSimlint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		findings, err := Run("../..")
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("repository not clean: %v", findings)
		}
	}
}
