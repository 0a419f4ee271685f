package tlb_test

import (
	"os"
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
