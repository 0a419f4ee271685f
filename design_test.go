package tlb_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignInventory keeps DESIGN.md §3 honest in both directions:
// every directory under internal/, cmd/ and examples/ has a row in the
// inventory table, and every row names a path that exists. It also
// holds the document to describing what exists: at most 500 lines, and
// no citations of numbered pull requests, whose history belongs in
// CHANGES.md.
func TestDesignInventory(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(doc), "\n"); n > 500 {
		t.Errorf("DESIGN.md has %d lines, budget 500", n)
	}
	for _, m := range regexp.MustCompile(`\bPRs? ?\d+`).FindAllString(string(doc), -1) {
		t.Errorf("DESIGN.md cites %q: history belongs in CHANGES.md", m)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
		if _, err := os.Stat(m[1]); err != nil {
			t.Errorf("DESIGN.md §3 names %s, which does not exist", m[1])
		}
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if p := root + "/" + e.Name(); e.IsDir() && !rows[p] {
				t.Errorf("%s has no row in DESIGN.md §3", p)
			}
		}
	}
}

// TestExperimentsVerdictsNameTheirTests keeps EXPERIMENTS.md's
// verdicts tied to what the suite asserts: every "## " section whose
// heading carries a verdict (✅, ⚠️ or ❌) names at least one test, every
// test the document names is a func in some *_test.go file, and every
// back-ticked repo path it cites exists.
func TestExperimentsVerdictsNameTheirTests(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	testName := regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*`)
	for _, section := range strings.Split(string(doc), "\n## ")[1:] {
		heading, _, _ := strings.Cut(section, "\n")
		if strings.ContainsAny(heading, "✅⚠❌") && !testName.MatchString(section) {
			t.Errorf("EXPERIMENTS.md section %q carries a verdict but names no test", heading)
		}
	}

	defined := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range testName.FindAllString(string(doc), -1) {
		if !defined[name] {
			t.Errorf("EXPERIMENTS.md names %s, which no *_test.go file defines", name)
		}
	}

	// A repo path: a back-ticked token of slash-joined names, no spaces.
	repoPath := regexp.MustCompile("`([A-Za-z0-9_.*-]+(?:/[A-Za-z0-9_.*-]+)+/?)`")
	for _, m := range repoPath.FindAllStringSubmatch(string(doc), -1) {
		if matches, _ := filepath.Glob(strings.TrimSuffix(m[1], "/")); len(matches) == 0 {
			t.Errorf("EXPERIMENTS.md cites %s, which does not exist", m[1])
		}
	}
}
