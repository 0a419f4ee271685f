package tlb_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDesignInventory keeps DESIGN.md §3 honest in both directions:
// every directory under internal/, cmd/ and examples/ has a row in the
// inventory table, and every row names a path that exists.
func TestDesignInventory(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
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
