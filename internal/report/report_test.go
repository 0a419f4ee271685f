package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tlb/internal/faults"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/topology"
	"tlb/internal/units"
	"tlb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runScenario(t *testing.T, name, scheme string, faulted bool) *sim.Result {
	t.Helper()
	sc := sim.Scenario{
		Name: name,
		Topology: topology.Config{
			Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			HostLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
			FabricLink: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			Queue:      netem.QueueConfig{Capacity: 64, ECNThreshold: 16},
		},
		Balancer:   lb.ECMP(),
		SchemeName: scheme,
		Seed:       42,
		FlowSourceNew: workload.Arrivals([]workload.Flow{
			{Src: 0, Dst: 2, Size: 200 * units.KB, Start: 0},
			{Src: 1, Dst: 3, Size: 40 * units.KB, Start: 100 * units.Microsecond},
		}),
		MaxTime: units.Second,
	}
	if faulted {
		sc.Faults = faults.Schedule{
			{At: 200 * units.Microsecond, Op: faults.OpDown},
			{At: 2 * units.Millisecond, Op: faults.OpRestore},
		}
	}
	res, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testCampaign(t *testing.T) Campaign {
	t.Helper()
	return Campaign{
		Title: "report <test> campaign",
		Results: []*sim.Result{
			runScenario(t, "healthy", "ecmp", false),
			runScenario(t, "faulted", "ecmp", true),
		},
	}
}

func TestHTMLDeterministic(t *testing.T) {
	c := testCampaign(t)
	a, b := HTML(c), HTML(c)
	if !bytes.Equal(a, b) {
		t.Fatal("two renders of the same campaign differ")
	}
}

func TestHTMLSelfContained(t *testing.T) {
	c := testCampaign(t)
	doc := string(HTML(c))
	if !strings.HasPrefix(doc, "<!DOCTYPE html>") {
		t.Fatal("missing doctype")
	}
	for _, id := range []string{IDSummary, IDAFCT, IDQueues, IDFaults} {
		if !strings.Contains(doc, `<section id="`+id+`">`) {
			t.Fatalf("missing section %q", id)
		}
	}
	// Self-contained: no scripts, no external fetches of any kind.
	for _, banned := range []string{"<script", "http://", "https://", "src=", "<link", "@import", "url("} {
		if strings.Contains(doc, banned) {
			t.Fatalf("report is not self-contained: found %q", banned)
		}
	}
	// Untrusted strings are escaped.
	if strings.Contains(doc, "<test>") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(doc, "report &lt;test&gt; campaign") {
		t.Fatal("escaped title missing")
	}
	// The faulted run outlasts its down and restore: one marker each,
	// titled with the event.
	for _, title := range []string{"<title>200µs leaf0&lt;-&gt;spine0 down</title>", "<title>2ms leaf0&lt;-&gt;spine0 restore</title>"} {
		if strings.Count(doc, title) != 1 {
			t.Errorf("fault timeline: want one marker titled %q", title)
		}
	}
	if n := strings.Count(doc, "<circle"); n != 2 {
		t.Errorf("%d fault timeline markers, want 2", n)
	}
}

func TestHTMLNoFaults(t *testing.T) {
	c := Campaign{Results: []*sim.Result{runScenario(t, "healthy", "ecmp", false)}}
	doc := string(HTML(c))
	if !strings.Contains(doc, "no run reached a fault event") {
		t.Fatal("fault section should state that no run reached a fault event")
	}
}

func TestHTMLEmptyCampaign(t *testing.T) {
	doc := string(HTML(Campaign{Title: "empty"}))
	for _, id := range []string{IDSummary, IDAFCT, IDQueues, IDFaults} {
		if !strings.Contains(doc, `<section id="`+id+`">`) {
			t.Fatalf("empty campaign missing section %q", id)
		}
	}
}

// TestSkeletonGolden pins the report's structural outline: section ids
// and container elements in document order. Regenerate with -update
// when the structure changes on purpose.
func TestSkeletonGolden(t *testing.T) {
	got := skeleton(HTML(testCampaign(t)))
	golden := filepath.Join("testdata", "skeleton.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report skeleton drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// skeletonRe matches the structural elements of a report: section ids,
// headings, and the chart/table containers.
var skeletonRe = regexp.MustCompile(`<section id="([a-z]+)">|<(h1|h2|table|svg|p class="empty")[\s>]`)

// skeleton reduces a rendered report to its structural outline —
// section ids and container elements in document order, one token per
// line — the stable surface TestSkeletonGolden pins without freezing
// pixel content.
func skeleton(doc []byte) string {
	var out []string
	for _, m := range skeletonRe.FindAllStringSubmatch(string(doc), -1) {
		if m[1] != "" {
			out = append(out, "section#"+m[1])
		} else {
			tag := m[2]
			if tag == `p class="empty"` {
				tag = "p.empty"
			}
			out = append(out, tag)
		}
	}
	return strings.Join(out, "\n") + "\n"
}
