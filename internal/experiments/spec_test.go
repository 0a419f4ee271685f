package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tlb/internal/sim"
	"tlb/internal/spec"
)

// goldenOpts pins the options the checked-in golden specs were
// generated with; changing them invalidates testdata/specs.
func goldenOpts() Options { return Options{Seed: 42, FlowsPerRun: 150} }

// goldenSources enumerates the spec batches covered by the golden
// files: the basic-environment comparison (fig8/9), the faulted
// testbed batch (figF1) and the streamed scale run (figLS) — between
// them they exercise schemes with parameters, mix groups, deadlines,
// outputs, interpod workloads and fault schedules.
func goldenSources() map[string][]spec.Spec {
	o := goldenOpts()
	_, fig89 := fig89Specs(o)
	_, figF1 := figF1Specs(o)
	_, figLS := figLSSpecs(o)
	return map[string][]spec.Spec{
		"fig8-9": fig89,
		"figF1":  figF1,
		"figLS":  figLS,
	}
}

// TestSpecsRoundTrip marshals every figure-built spec to JSON, loads
// it back, and requires the loaded value to be structurally identical,
// re-marshal byte-identical, and valid.
func TestSpecsRoundTrip(t *testing.T) {
	for prefix, specs := range goldenSources() {
		for i := range specs {
			sp := specs[i]
			data, err := sp.Marshal()
			if err != nil {
				t.Fatalf("%s[%d] %s: marshal: %v", prefix, i, sp.Name, err)
			}
			back, err := spec.LoadBytes(data)
			if err != nil {
				t.Fatalf("%s[%d] %s: load: %v", prefix, i, sp.Name, err)
			}
			if !reflect.DeepEqual(sp, *back) {
				t.Errorf("%s[%d] %s: spec changed across marshal/unmarshal\nbefore: %+v\nafter:  %+v",
					prefix, i, sp.Name, sp, *back)
			}
			again, err := back.Marshal()
			if err != nil {
				t.Fatalf("%s[%d] %s: re-marshal: %v", prefix, i, sp.Name, err)
			}
			if !bytes.Equal(data, again) {
				t.Errorf("%s[%d] %s: JSON not stable across a round trip", prefix, i, sp.Name)
			}
			if err := back.Validate(); err != nil {
				t.Errorf("%s[%d] %s: loaded spec invalid: %v", prefix, i, sp.Name, err)
			}
		}
	}
}

// TestGoldenSpecFiles compares the figure-built specs against the
// checked-in JSON under testdata/specs — the serialized contract of
// the experiment definitions. Regenerate with
//
//	TLB_UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenSpecFiles
func TestGoldenSpecFiles(t *testing.T) {
	update := os.Getenv("TLB_UPDATE_GOLDEN") != ""
	dir := filepath.Join("testdata", "specs")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for prefix, specs := range goldenSources() {
		for i := range specs {
			sp := specs[i]
			name := fmt.Sprintf("%s-%03d-%s.json", sanitizeFileName(prefix), i, sanitizeFileName(sp.Name))
			path := filepath.Join(dir, name)
			data, err := sp.Marshal()
			if err != nil {
				t.Fatalf("%s: marshal: %v", sp.Name, err)
			}
			if update {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (regenerate with TLB_UPDATE_GOLDEN=1)", sp.Name, err)
			}
			if !bytes.Equal(data, want) {
				t.Errorf("%s: spec differs from golden %s (regenerate with TLB_UPDATE_GOLDEN=1 if the change is intended)",
					sp.Name, path)
			}
		}
	}
}

// TestSpecCompileRoundTripResults runs one scenario twice — once from
// the in-memory spec, once from its JSON round trip — and requires
// identical results: serializing an experiment must not change what it
// measures.
func TestSpecCompileRoundTripResults(t *testing.T) {
	_, specs := fig89Specs(goldenOpts())
	sp := specs[0] // ecmp on the basic environment

	run := func(s *spec.Spec) *sim.Result {
		t.Helper()
		sc, err := s.Compile()
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		res, err := sim.Run(sc)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}

	direct := run(&sp)
	data, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := spec.LoadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	tripped := run(loaded)

	checks := []struct {
		name     string
		from, to float64
	}{
		{"flows", float64(direct.Count(sim.AllFlows)), float64(tripped.Count(sim.AllFlows))},
		{"completed", float64(direct.CompletedCount(sim.AllFlows)), float64(tripped.CompletedCount(sim.AllFlows))},
		{"short AFCT", direct.AFCT(sim.ShortFlows).Seconds(), tripped.AFCT(sim.ShortFlows).Seconds()},
		{"long AFCT", direct.AFCT(sim.LongFlows).Seconds(), tripped.AFCT(sim.LongFlows).Seconds()},
		{"drops", float64(direct.Drops), float64(tripped.Drops)},
		{"end time", direct.EndTime.Seconds(), tripped.EndTime.Seconds()},
	}
	for _, c := range checks {
		if c.from != c.to {
			t.Errorf("%s: direct %v != round-tripped %v", c.name, c.from, c.to)
		}
	}
}

// TestSpecObserverSeesEveryRun runs a figure with the spec observer
// installed and checks that every scenario the figure executes is
// visible — and valid — as a spec.
func TestSpecObserverSeesEveryRun(t *testing.T) {
	o := Options{Seed: 42, FlowsPerRun: 60}
	var seen []spec.Spec
	o.specObserver = func(prefix string, sp *spec.Spec) {
		if prefix != "fig8/9" {
			t.Errorf("unexpected prefix %q", prefix)
		}
		seen = append(seen, *sp)
	}
	if _, err := Fig8And9(o); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("observed %d specs, want 5 (the four baselines + tlb)", len(seen))
	}
	for _, sp := range seen {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
		if sp.Outputs.TimeBucket == "" {
			t.Errorf("%s: fig8/9 needs the time series enabled", sp.Name)
		}
	}
}
