package experiments

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"tlb/internal/lb"
	"tlb/internal/spec"
)

// goldenFigures is the small-scale acceptance matrix pinned as CSV
// under testdata/golden: between them the entries cover the receiver
// time series and goodput ticker (fig8-9), retained packet samples
// (fig3-4), the Poisson load grid (fig10), the testbed sweep (fig13),
// replication (extended), the fat-tree's two chained decisions under
// the inter-pod workload (fattree), the fault schedule (figF1), the
// flapping link (figF2), the streamed lazy-source run at 2 500 flows
// (figLS) and the figures whose TLB / transport parameters deviate
// from the registry defaults — every TLB and transport ablation
// (ablations), a pinned q_th with a stated deadline (fig7), the
// deadline percentiles (fig12) and link overrides on the testbed
// transport (fig16) — pinning any change to shared run machinery or to
// how an environment states its parameters to a reviewed diff.
var goldenFigures = []struct {
	name string
	run  func(Options) ([]Figure, error)
	opts Options
}{
	{"fig3-4", Fig3And4, Options{Seed: 42}},
	{"fig8-9", Fig8And9, Options{Seed: 42}},
	{"fig10", Fig10, Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 1}},
	{"fig13", Fig13, Options{Seed: 42, SweepPoints: 1}},
	{"extended", ExtendedBaselines, Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 1}},
	{"fattree", FatTreeComparison, Options{Seed: 42}},
	{"figF1", FigF1, Options{Seed: 42, FlowsPerRun: 40}},
	{"figF2", FigF2, Options{Seed: 42, FlowsPerRun: 40, SweepPoints: 2}},
	{"figLS", FigLS, Options{Seed: 42, FlowsPerRun: 2}},
	{"ablations", allAblations, Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 2}},
	{"fig7", Fig7, Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 2}},
	{"fig12", Fig12, Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 2}},
	{"fig16", Fig16, Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 2}},
}

// allAblations renders the seven ablation-* registry entries, in
// registry order, as one figure list.
func allAblations(o Options) ([]Figure, error) {
	entries, err := Lookup("ablations")
	if err != nil {
		return nil, err
	}
	var figs []Figure
	for _, e := range entries {
		fs, err := e.Run(o)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fs...)
	}
	return figs, nil
}

// TestGoldenFigures renders each pinned figure and compares the CSV
// bytes with the checked-in file. Regenerate with
//
//	TLB_UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenFigures
func TestGoldenFigures(t *testing.T) {
	t.Cleanup(func() { goldenRuns.complete = true }) // runs after the parallel subtests
	update := os.Getenv("TLB_UPDATE_GOLDEN") != ""
	dir := filepath.Join("testdata", "golden")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range goldenFigures {
		g := g
		path := filepath.Join(dir, g.name+".csv")
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			o := g.opts
			o.Workers = 1
			o.specObserver = func(_ string, sp *spec.Spec) {
				data, err := sp.Marshal()
				if err != nil {
					t.Error(err)
					return
				}
				goldenRuns.Lock()
				defer goldenRuns.Unlock()
				goldenRuns.schemes[sp.Scheme.Name] = true
				for k := range sp.Scheme.Params {
					goldenRuns.params[sp.Scheme.Name+"."+k] = true
				}
				collectSpecFields(data, goldenRuns.fields)
			}
			figs, err := g.run(o)
			if err != nil {
				t.Fatal(err)
			}
			got := figureCSV(figs)
			if update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with TLB_UPDATE_GOLDEN=1)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from golden %s (regenerate with TLB_UPDATE_GOLDEN=1 if the change is intended)\n--- got ---\n%s", path, got)
			}
		})
	}
}

// goldenRuns is what the specs of the golden figures set, collected by
// TestGoldenFigures as it runs: every scheme name, every scheme
// parameter ("scheme.param") and every spec field ("Struct.jsonField",
// see collectSpecFields).
var goldenRuns = struct {
	sync.Mutex
	schemes, params, fields map[string]bool
	complete                bool
}{schemes: map[string]bool{}, params: map[string]bool{}, fields: map[string]bool{}}

// eachCheckedInJSON calls fn with every JSON document checked in under
// the module root (hidden directories skipped): presets, example specs,
// golden specs, benchmark workloads, and documents that are no spec.
func eachCheckedInJSON(t *testing.T, fn func(doc any, data []byte)) {
	t.Helper()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || filepath.Ext(path) != ".json" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil // not a document this test can hold to anything
		}
		fn(doc, data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEveryParamIsSetByARun: the registry offers exactly the parameters
// some run turns — the golden figures' specs (collected above, no extra
// simulation) plus every checked-in JSON file that holds a scheme
// clause (presets, example specs, golden specs, benchmark workloads).
// A parameter nothing sets is a default under another name; a new knob
// needs a run that turns it.
func TestEveryParamIsSetByARun(t *testing.T) {
	if !goldenRuns.complete {
		t.Skip("reads what TestGoldenFigures' runs collected: run them together (as `go test` and `make identity` do)")
	}
	set := goldenRuns.params
	eachCheckedInJSON(t, func(doc any, _ []byte) { collectSchemes(doc, map[string]bool{}, set) })
	var got, want []string
	for k := range set {
		got = append(got, k)
	}
	for _, name := range lb.Names() {
		reg, _ := lb.Lookup(name)
		for _, p := range reg.Params {
			want = append(want, name+"."+p.Name)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("parameters some run or checked-in spec sets:\n  %s\nparameters the registry offers:\n  %s",
			strings.Join(got, " "), strings.Join(want, " "))
	}
}

// TestEverySchemeIsRunByARun is TestEveryParamIsSetByARun for the
// registry's schemes: each is the scheme.name of some run, over the
// same collection. A scheme no run names is code nothing measures.
func TestEverySchemeIsRunByARun(t *testing.T) {
	if !goldenRuns.complete {
		t.Skip("reads what TestGoldenFigures' runs collected: run them together (as `go test` and `make identity` do)")
	}
	names := goldenRuns.schemes
	eachCheckedInJSON(t, func(doc any, _ []byte) { collectSchemes(doc, names, map[string]bool{}) })
	var missing []string
	for _, name := range lb.Names() {
		if !names[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("registered schemes no run or checked-in spec names: %s", strings.Join(missing, " "))
	}
}

// collectSchemes adds the name and the parameters of every {"scheme":
// {"name": ..., "params": {...}}} clause anywhere in a JSON document.
func collectSchemes(doc any, names, params map[string]bool) {
	switch v := doc.(type) {
	case map[string]any:
		if sch, ok := v["scheme"].(map[string]any); ok {
			name, _ := sch["name"].(string)
			names[name] = true
			ps, _ := sch["params"].(map[string]any)
			for k := range ps {
				params[name+"."+k] = true
			}
		}
		for _, child := range v {
			collectSchemes(child, names, params)
		}
	case []any:
		for _, child := range v {
			collectSchemes(child, names, params)
		}
	}
}

// TestEverySpecFieldIsSetByARun is TestEveryParamIsSetByARun for the
// spec format itself: every field of every spec struct is present in
// the marshalled spec of some run — a golden figure's, or a checked-in
// JSON file that loads as a spec or as a list of them. A field no run
// sets is a constant under another name. Fields are keyed by (struct,
// JSON field), so Link.delay is one field wherever a Link sits. What
// this cannot see is a field every run sets to the value it would
// default to anyway (transport.initialRTO was only ever set equal to
// minRTO, its default); those need reading, not counting.
func TestEverySpecFieldIsSetByARun(t *testing.T) {
	if !goldenRuns.complete {
		t.Skip("reads what TestGoldenFigures' runs collected: run them together (as `go test` and `make identity` do)")
	}
	set := goldenRuns.fields
	eachCheckedInJSON(t, func(doc any, data []byte) {
		docs := []json.RawMessage{data}
		if _, list := doc.([]any); list {
			if err := json.Unmarshal(data, &docs); err != nil {
				t.Fatal(err)
			}
		}
		for _, raw := range docs {
			sp, err := spec.LoadBytes(raw)
			if err != nil {
				continue // not a spec
			}
			out, err := sp.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			collectSpecFields(out, set)
		}
	})
	var missing []string
	for _, f := range specFields(reflect.TypeOf(spec.Spec{}), nil) {
		if !set[f] {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		t.Errorf("spec fields no run sets: %s", strings.Join(missing, " "))
	}
}

// collectSpecFields adds "Struct.jsonField" for every field present in
// a marshalled spec, walking the JSON alongside the spec's types.
func collectSpecFields(data []byte, set map[string]bool) {
	var doc any
	if err := json.Unmarshal(data, &doc); err == nil {
		walkSpecFields(reflect.TypeOf(spec.Spec{}), doc, set)
	}
}

func walkSpecFields(typ reflect.Type, doc any, set map[string]bool) {
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	switch v := doc.(type) {
	case []any:
		for _, e := range v {
			walkSpecFields(typ, e, set)
		}
	case map[string]any:
		if typ.Kind() != reflect.Struct {
			return // scheme.params: keyed by the registry, see TestEveryParamIsSetByARun
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if child, ok := v[name]; ok {
				set[typ.Name()+"."+name] = true
				walkSpecFields(f.Type, child, set)
			}
		}
	}
}

// specFields lists every "Struct.jsonField" of the spec format reachable
// from typ, in declaration order, each once.
func specFields(typ reflect.Type, out []string) []string {
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		return out
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key := typ.Name() + "." + name; !slices.Contains(out, key) {
			out = specFields(f.Type, append(out, key))
		}
	}
	return out
}
