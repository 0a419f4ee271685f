package lint

import (
	"fmt"
	"os"
	"path/filepath"
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

// TestFixtures checks every analyzer against its positive (bad.go) and
// negative (ok.go, harness files) fixtures: the findings must match the
// //WANT markers exactly — no extra findings, none missing.
func TestFixtures(t *testing.T) {
	fixtures := []string{
		"nowallclock", "noglobalrand", "maporder", "floateq", "unitliteral",
		"packetown", "handlelife", "dimcheck", "sharedstate",
		"directives", "testfiles",
	}
	for _, fix := range fixtures {
		t.Run(fix, func(t *testing.T) {
			root := filepath.Join("testdata", fix)
			want := expectedFindings(t, root)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no //WANT markers", fix)
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

// repoAnnotations lists every suppression group in the repository —
// test files included, since they are linted too — as (relative file,
// removal text, rule). For a single-group directive the removal text
// is the whole directive; for a multi-rule directive it is just the
// one rule(reason) group, so deleting it leaves the other groups
// intact.
func repoAnnotations(t *testing.T, root string) (files []string, texts []string, rules []string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		// The linter's own sources and the simlint command mention the
		// directive syntax in doc comments, diagnostic messages and this
		// very function; those are not suppressions of anything.
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/lint/") || strings.HasPrefix(filepath.ToSlash(rel), "cmd/simlint/") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "//simlint:")
			if idx < 0 {
				continue
			}
			comment := line[idx:]
			loc := allowRe.FindStringIndex(comment)
			if loc == nil {
				continue
			}
			// Walk the rule(reason) groups, recording each one's extent.
			type group struct {
				start, end int
				rule       string
			}
			var groups []group
			off := loc[1]
			for {
				m := allowGroupRe.FindStringSubmatch(comment[off:])
				if m == nil {
					break
				}
				groups = append(groups, group{start: off, end: off + len(m[0]), rule: m[1]})
				off += len(m[0])
			}
			for _, g := range groups {
				files = append(files, rel)
				rules = append(rules, g.rule)
				if len(groups) == 1 {
					texts = append(texts, comment[:g.end])
				} else {
					texts = append(texts, comment[g.start:g.end])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, texts, rules
}

// TestRemovingAnyAllowAnnotationFails proves the repo's annotations are
// load-bearing: for every //simlint:allow directive in the tree,
// deleting just that directive makes simlint report the suppressed
// rule at that site.
func TestRemovingAnyAllowAnnotationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("re-lints the repository once per annotation")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	files, texts, rules := repoAnnotations(t, root)
	if len(files) < 4 {
		t.Fatalf("expected the repo to carry several allow annotations, found %d", len(files))
	}
	for i := range files {
		name := fmt.Sprintf("%s-%s-%d", strings.ReplaceAll(files[i], string(os.PathSeparator), "_"), rules[i], i)
		t.Run(name, func(t *testing.T) {
			tmp := t.TempDir()
			copyModule(t, root, tmp)
			target := filepath.Join(tmp, files[i])
			data, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			stripped := strings.Replace(string(data), texts[i], "", 1)
			if stripped == string(data) {
				t.Fatalf("directive %q not found in copy of %s", texts[i], files[i])
			}
			if err := os.WriteFile(target, []byte(stripped), 0o644); err != nil {
				t.Fatal(err)
			}
			findings, err := Run(tmp)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				if f.Rule == rules[i] && f.File == filepath.ToSlash(files[i]) {
					return // the annotation was load-bearing
				}
			}
			t.Errorf("removing %q from %s produced no %s finding; findings: %v",
				texts[i], files[i], rules[i], findings)
		})
	}
}

// TestReintroducingWallClockFails proves the nowallclock rule guards
// the real tree: dropping a time.Now call into internal/netem makes
// the lint run fail.
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
	findings, err := Run(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Rule == "nowallclock" && f.File == "internal/netem/zz_wallclock.go" {
			return
		}
	}
	t.Errorf("time.Now in internal/netem went undetected; findings: %v", findings)
}

// TestCleanFixtures covers loader edge cases that must produce zero
// findings: build-tag- and GOOS-excluded files are invisible, a module
// with no simulation packages loads fine, and a nested testdata tree
// is another module's fixture, not ours.
func TestCleanFixtures(t *testing.T) {
	for _, fix := range []string{"buildtags", "nosim", "nestedtestdata"} {
		t.Run(fix, func(t *testing.T) {
			got := runLint(t, filepath.Join("testdata", fix))
			if len(got) != 0 {
				t.Errorf("expected no findings, got:\n%s", strings.Join(got, "\n"))
			}
		})
	}
}

// TestRuleRegistry pins the stable diagnostic IDs: consumers key on
// them, so changing one is a breaking change.
func TestRuleRegistry(t *testing.T) {
	want := map[string]string{
		"simlint":      "SIM000",
		"nowallclock":  "SIM001",
		"noglobalrand": "SIM002",
		"maporder":     "SIM003",
		"floateq":      "SIM004",
		"unitliteral":  "SIM005",
		"packetown":    "SIM006",
		"handlelife":   "SIM007",
		"dimcheck":     "SIM008",
		"sharedstate":  "SIM009",
		"unusedallow":  "SIM010",
	}
	rules := Rules()
	if len(rules) != len(want) {
		t.Fatalf("Rules() returned %d rules, want %d: %v", len(rules), len(want), rules)
	}
	for rule, id := range want {
		if got := RuleID(rule); got != id {
			t.Errorf("RuleID(%s) = %s, want %s", rule, got, id)
		}
		if RuleDoc(rule) == "" {
			t.Errorf("RuleDoc(%s) is empty", rule)
		}
	}
	if got := RuleID("nosuchrule"); got != "SIM999" {
		t.Errorf("RuleID(nosuchrule) = %s, want SIM999", got)
	}
}

// BenchmarkSimlint tracks the analyzer's wall clock over the whole
// repository (all nine rules, test files included); `make bench`
// records it in BENCH_7.json.
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
