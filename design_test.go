package tlb_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
// back-ticked repo path it cites exists. A verdict section quotes a
// decimal number only inside a golden block (TestExperimentsGoldenBlocks)
// or in a paragraph that names the command and the commit that produced
// it; a table counts as part of the paragraph that introduces it.
// Section references (§6.2) and Go versions are not numbers here.
func TestExperimentsVerdictsNameTheirTests(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	testName := regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*`)
	block := regexp.MustCompile(`(?s)<!-- golden:.*?<!-- /golden -->`)
	decimal := regexp.MustCompile(`\d+\.\d+`)
	notNumber := regexp.MustCompile(`§[\d.]+|\bGo \d+\.\d+`)
	command := regexp.MustCompile("`(go|make) [^`]+`")
	commit := regexp.MustCompile(`\bcommit [0-9a-f]{7,40}\b`)
	for _, section := range strings.Split(string(doc), "\n## ")[1:] {
		heading, _, _ := strings.Cut(section, "\n")
		if !strings.ContainsAny(heading, "✅⚠❌") {
			continue
		}
		if !testName.MatchString(section) {
			t.Errorf("EXPERIMENTS.md section %q carries a verdict but names no test", heading)
		}
		intro := ""
		for _, para := range strings.Split(block.ReplaceAllString(section, ""), "\n\n") {
			if para = strings.TrimSpace(para); para == "" {
				continue
			}
			own := para
			if strings.HasPrefix(para, "|") {
				own = intro + "\n" + para
			}
			nums := decimal.FindAllString(notNumber.ReplaceAllString(para, ""), -1)
			if len(nums) > 0 && !(command.MatchString(own) && commit.MatchString(own)) {
				first, _, _ := strings.Cut(para, "\n")
				t.Errorf("EXPERIMENTS.md section %q quotes %s outside a golden block, in a paragraph that names no command and commit: %q",
					heading, strings.Join(nums, " "), first)
			}
			intro = own
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

// TestExperimentsGoldenBlocks renders every generated block of
// EXPERIMENTS.md from the golden CSVs it names and compares the document
// byte for byte. A block is the lines from a marker
//
//	<!-- golden:<name> panels=<id>,… [ms=<id>,…] -->
//
// to <!-- /golden -->: a table of internal/experiments/testdata/golden/
// <name>.csv with one row per listed panel and x value (in CSV order)
// and one column per series, each value to four significant digits;
// every row needs a value for every series.
// The panels named by ms are in seconds and print in milliseconds.
// Rewrite the blocks from the CSVs (make docs) with
//
//	TLB_UPDATE_GOLDEN=1 go test -run TestExperimentsGoldenBlocks .
func TestExperimentsGoldenBlocks(t *testing.T) {
	const path = "EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := renderGoldenBlocks(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("TLB_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have := strings.Split(string(doc), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(have) || line != have[i] {
			t.Fatalf("%s:%d is not what its golden CSV renders (make docs rewrites it)\nrendered: %s", path, i+1, line)
		}
	}
}

var goldenMarker = regexp.MustCompile(`^<!-- golden:([\w-]+) panels=([\w,-]+)(?: ms=([\w,-]+))? -->$`)

// renderGoldenBlocks returns doc with the body of every golden block
// rendered anew.
func renderGoldenBlocks(doc string) (string, error) {
	lines := strings.Split(doc, "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		out = append(out, lines[i])
		if !strings.HasPrefix(lines[i], "<!-- golden:") {
			continue
		}
		m := goldenMarker.FindStringSubmatch(lines[i])
		if m == nil {
			return "", fmt.Errorf("line %d: malformed golden marker %q", i+1, lines[i])
		}
		table, err := goldenTable(m[1], strings.Split(m[2], ","), strings.Split(m[3], ","))
		if err != nil {
			return "", fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, table...)
		for i+1 < len(lines) && lines[i+1] != "<!-- /golden -->" {
			i++
		}
		if i+1 == len(lines) {
			return "", fmt.Errorf("line %d: golden block has no <!-- /golden --> line", i+1)
		}
	}
	return strings.Join(out, "\n"), nil
}

// goldenTable renders the named panels of a golden CSV as the lines of
// a Markdown table.
func goldenTable(name string, panels, ms []string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", "golden", name+".csv"))
	if err != nil {
		return nil, err
	}
	type row struct{ panel, x string }
	var (
		rows   []row
		series []string
		cells  = map[row]map[string]string{}
		titles = map[string]string{}
		id     string
	)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if head, ok := strings.CutPrefix(line, "# "); ok {
			p, title, _ := strings.Cut(head, ",")
			id = ""
			if slices.Contains(panels, p) {
				id, titles[p] = p, title
			}
			continue
		}
		if id == "" {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) == 2 {
			f = []string{f[0], "", f[1]}
		}
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if len(f) != 3 || err != nil {
			return nil, fmt.Errorf("%s.csv: malformed row %q", name, line)
		}
		if slices.Contains(ms, id) {
			v *= 1000
		}
		r := row{panel: id, x: f[1]}
		if cells[r] == nil {
			cells[r] = map[string]string{}
			rows = append(rows, r)
		}
		if !slices.Contains(series, f[0]) {
			series = append(series, f[0])
		}
		cells[r][f[0]] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	table := []string{
		"| " + name + ".csv | " + strings.Join(series, " | ") + " |",
		"|---" + strings.Repeat("|---", len(series)) + "|",
	}
	for _, p := range panels {
		if _, ok := titles[p]; !ok {
			return nil, fmt.Errorf("%s.csv has no panel %s", name, p)
		}
		for _, r := range rows {
			if r.panel != p {
				continue
			}
			label := p
			if r.x != "" {
				label += " x=" + r.x
			}
			label += ": " + titles[p]
			if slices.Contains(ms, p) {
				label += ", ms"
			}
			text := "| " + label
			for _, s := range series {
				v, ok := cells[r][s]
				if !ok {
					return nil, fmt.Errorf("%s.csv: %s has no %s value at x=%q", name, p, s, r.x)
				}
				text += " | " + v
			}
			table = append(table, text+" |")
		}
	}
	return table, nil
}
