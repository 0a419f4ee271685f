package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlb/internal/spec"
	"tlb/internal/workload"
)

const quickstart = "../../examples/quickstart/spec.json"

// runOut runs one invocation in process and returns its stdout.
func runOut(t *testing.T, o options) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(o, &out)
	return out.String(), err
}

// TestPresetsValidateAndCompile: the three checked-in presets load,
// validate and lower to a runnable scenario.
func TestPresetsValidateAndCompile(t *testing.T) {
	for _, name := range []string{"websearch", "datamining", "mix"} {
		sp, err := spec.Load(filepath.Join("specs", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc, err := sp.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(workload.Collect(sc.FlowSourceNew())) == 0 {
			t.Fatalf("%s: compiled to no flows", name)
		}
	}
}

// TestPresetsReproducePinnedOutput: the presets print what the
// flag-built scenarios they replace printed (testdata/*.stdout is the
// stdout of `tlbsim` and `tlbsim -workload mix` at the last commit that
// had flag mode).
func TestPresetsReproducePinnedOutput(t *testing.T) {
	for _, name := range []string{"mix", "websearch"} {
		t.Run(name, func(t *testing.T) {
			if name == "websearch" && testing.Short() {
				t.Skip("runs ~1 s")
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".stdout"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := runOut(t, options{specPaths: filepath.Join("specs", name+".json")})
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from testdata/%s.stdout\n--- got ---\n%s", name, got)
			}
		})
	}
}

// TestZeroTransportFieldIsTheDefault: a transport field set to zero
// means the default — the mix preset with "minRTO": "0s" added runs on
// the 10 ms floor and prints the preset's own pinned output.
func TestZeroTransportFieldIsTheDefault(t *testing.T) {
	sp, err := spec.Load(filepath.Join("specs", "mix.json"))
	if err != nil {
		t.Fatal(err)
	}
	zero := spec.Duration("0s")
	sp.Transport = &spec.Transport{MinRTO: &zero}
	data, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mix-zero-rto.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "mix.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runOut(t, options{specPaths: path})
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/mix.stdout\n--- got ---\n%s", got)
	}
}

// TestListSchemesPinned: -list-schemes is the one reviewed statement of
// every scheme's parameters, kinds and defaults, rendered from the
// registry's declarations. Adding, removing or re-defaulting a
// parameter shows up as a diff of testdata/list-schemes.stdout
// (regenerate with `go run ./cmd/tlbsim -list-schemes`).
func TestListSchemesPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "list-schemes.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	listSchemes(&got)
	if got.String() != string(want) {
		t.Errorf("-list-schemes differs from testdata/list-schemes.stdout\n--- got ---\n%s", got.String())
	}
}

// TestBatchPrintsResultsInInputOrder: a two-file -spec reports in the
// order the files were named, whichever run finishes first.
func TestBatchPrintsResultsInInputOrder(t *testing.T) {
	for _, paths := range [][2]string{
		{"specs/mix.json", quickstart},
		{quickstart, "specs/mix.json"},
	} {
		got, err := runOut(t, options{specPaths: paths[0] + "," + paths[1], workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, line := range strings.Split(got, "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "scenario" {
				names = append(names, f[1])
			}
		}
		want := []string{"tlb-mix", "quickstart-spec"}
		if paths[0] == quickstart {
			want[0], want[1] = want[1], want[0]
		}
		if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
			t.Errorf("-spec %s,%s printed scenarios %v, want %v", paths[0], paths[1], names, want)
		}
	}
}

// TestNoSpecIsUsageError: with nothing to run the error points at the
// preset directory.
func TestNoSpecIsUsageError(t *testing.T) {
	for _, o := range []options{{}, {checkOnly: true}, {reportPath: "run.html"}} {
		got, err := runOut(t, o)
		if err == nil || !strings.Contains(err.Error(), "-spec") || !strings.Contains(err.Error(), "cmd/tlbsim/specs") {
			t.Errorf("%+v: err = %v, want a usage error naming -spec and cmd/tlbsim/specs", o, err)
		}
		if got != "" {
			t.Errorf("%+v: printed %q before failing", o, got)
		}
	}
}

// TestCheckSpecReportsBadFileAndKeepsGoing: an invalid file fails the
// invocation but the files after it are still checked.
func TestCheckSpecReportsBadFileAndKeepsGoing(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	data, err := os.ReadFile("specs/mix.json")
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"name": "tlb"`), []byte(`"name": "no-such-scheme"`), 1)
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := runOut(t, options{checkOnly: true, specPaths: bad + ",specs/mix.json"})
	if err == nil || !strings.Contains(err.Error(), "1 of 2 specs invalid") {
		t.Fatalf("err = %v, want 1 of 2 specs invalid", err)
	}
	if got != "specs/mix.json: ok\n" {
		t.Fatalf("stdout %q, want the good file's ok line only", got)
	}
}

// TestReportShowsFaultTimeline: the quickstart run outlasts its link's
// down (20 ms) and restore (60 ms), and its report draws one marker for
// each, whether the spec runs alone or in a batch. A lone spec's report
// is titled after its run, a batch's after the batch.
func TestReportShowsFaultTimeline(t *testing.T) {
	dir := t.TempDir()
	for paths, heading := range map[string]string{
		quickstart:                     "tlbsim run quickstart-spec",
		quickstart + ",specs/mix.json": "tlbsim batch",
	} {
		path := filepath.Join(dir, "report.html")
		if _, err := runOut(t, options{specPaths: paths, reportPath: path, workers: 2}); err != nil {
			t.Fatal(err)
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(doc, []byte("<h1>"+heading+"</h1>")) {
			t.Errorf("-spec %s: report is not titled %q", paths, heading)
		}
		for _, title := range []string{"20ms leaf0&lt;-&gt;spine3 down", "60ms leaf0&lt;-&gt;spine3 restore"} {
			if n := bytes.Count(doc, []byte("<title>"+title+"</title>")); n != 1 {
				t.Errorf("-spec %s: report shows %d markers titled %q, want 1", paths, n, title)
			}
		}
	}
}
