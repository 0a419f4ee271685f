package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"tlb/internal/lb"
	"tlb/internal/spec"
	"tlb/internal/workload"
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
// how an environment states its parameters to a reviewed diff. The
// data-mining grid (fig11), the long-flow testbed sweep (fig14), the
// de-rated links (fig17) and the wider field on them (extended-asym)
// pin the remaining scenario builders.
var goldenFigures = []goldenFigure{
	{"fig3-4", Options{Seed: 42}},
	{"fig8-9", Options{Seed: 42}},
	{"fig10", Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 1}},
	{"fig13", Options{Seed: 42, SweepPoints: 1}},
	{"extended", Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 1}},
	{"fattree", Options{Seed: 42}},
	{"figF1", Options{Seed: 42, FlowsPerRun: 40}},
	{"figF2", Options{Seed: 42, FlowsPerRun: 40, SweepPoints: 2}},
	{"figLS", Options{Seed: 42, FlowsPerRun: 2}},
	{"ablations", Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 2}},
	{"fig7", Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 2}},
	{"fig12", Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 2}},
	{"fig16", Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 2}},
	{"fig11", Options{Seed: 42, FlowsPerRun: 30, SweepPoints: 1}},
	{"fig14", Options{Seed: 42, SweepPoints: 1}},
	{"fig17", Options{Seed: 42, SweepPoints: 2}},
	{"extended-asym", Options{Seed: 42}},
}

// goldenFigure is one pinned figure: testdata/golden/<name>.csv is
// what Lookup(name)'s registry entries render at opts, in order, with
// one worker.
type goldenFigure struct {
	name string
	opts Options
}

// goldenEntry looks up the named entry of goldenFigures.
func goldenEntry(name string) (goldenFigure, error) {
	i := slices.IndexFunc(goldenFigures, func(g goldenFigure) bool { return g.name == name })
	if i < 0 {
		return goldenFigure{}, fmt.Errorf("no golden figure %q", name)
	}
	return goldenFigures[i], nil
}

// goldenRender is one golden entry's render.
type goldenRender struct {
	sync.Once
	figs []Figure
	err  error
}

// goldenRenders maps an entry's name to its *goldenRender.
var goldenRenders sync.Map

// golden returns the named entry's figures, rendered once per test
// binary — serially, with the specs it runs collected into goldenRuns —
// and shared by TestGoldenFigures and every test that asserts on a
// golden shape. Those tests call t.Parallel, so in a full run they
// start after TestGoldenFigures and read its renders.
func golden(t *testing.T, name string) []Figure {
	t.Helper()
	v, _ := goldenRenders.LoadOrStore(name, new(goldenRender))
	r := v.(*goldenRender)
	r.Do(func() { r.figs, r.err = renderGolden(name) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.figs
}

func renderGolden(name string) ([]Figure, error) {
	g, err := goldenEntry(name)
	if err != nil {
		return nil, err
	}
	o := g.opts
	o.Workers = 1
	var marshalErr error
	o.specObserver = func(prefix string, sp *spec.Spec) {
		data, err := sp.Marshal()
		if err != nil {
			marshalErr = err
			return
		}
		goldenRuns.Lock()
		defer goldenRuns.Unlock()
		goldenRuns.schemes[sp.Scheme.Name] = true
		batch := name + "/" + prefix
		goldenRuns.batches[batch] = append(goldenRuns.batches[batch], data)
		for k := range sp.Scheme.Params {
			goldenRuns.params[sp.Scheme.Name+"."+k] = true
		}
		collectSpecFields(data, goldenRuns.fields)
	}
	figs, err := render(name, o)
	return figs, errors.Join(err, marshalErr)
}

// render runs Lookup(names)'s registry entries at o, in order, and
// concatenates their figures.
func render(names string, o Options) ([]Figure, error) {
	entries, err := Lookup(names)
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
		path := filepath.Join(dir, g.name+".csv")
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			got := figureCSV(golden(t, g.name))
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

// TestBitRatesAreGbps: every golden panel whose y axis names a bit rate
// names Gbps. A golden CSV carries no unit, so one goodput panel in
// another unit reads 1 000 times off beside the rest.
func TestBitRatesAreGbps(t *testing.T) {
	rate := regexp.MustCompile(`\b[kKMGT]?bps\b`)
	for _, g := range goldenFigures {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			for _, f := range golden(t, g.name) {
				for _, unit := range rate.FindAllString(f.YLabel, -1) {
					if unit != "Gbps" {
						t.Errorf("%s: y axis %q is in %s, not Gbps", f.ID, f.YLabel, unit)
					}
				}
			}
		})
	}
}

// goldenRuns is what the specs of the golden figures set, collected by
// TestGoldenFigures as it runs: every scheme name, every scheme
// parameter ("scheme.param"), the values of every spec field (see
// collectSpecFields) and each batch's marshalled specs, keyed
// "<golden entry>/<batch prefix>".
var goldenRuns = struct {
	sync.Mutex
	schemes, params map[string]bool
	fields          fieldValues
	batches         map[string][][]byte
	complete        bool
}{schemes: map[string]bool{}, params: map[string]bool{}, fields: fieldValues{}, batches: map[string][][]byte{}}

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

// oneValuedFields are the spec fields TestEverySpecFieldIsSetByARun
// lets every run set to one value, each with its reason.
var oneValuedFields = map[string]string{
	"Spec.version":  "a format marker: one value is its point",
	"Fault.leaf":    "an address: every fault schedule in use takes leaf 0's uplinks",
	"Override.leaf": "an address: every asymmetry in use sits on leaf 0's uplinks",
	"Deadlines.onlyBelow": "pinned by bench/workloads, which sets it; it goes " +
		"with the benchmark's next change (ROADMAP item 10)",
	"InterPod.deadlineBase":      "pinned by bench/workloads, as Deadlines.onlyBelow",
	"InterPod.deadlineJitter":    "pinned by bench/workloads, as Deadlines.onlyBelow",
	"InterPod.deadlineOnlyBelow": "pinned by bench/workloads, as Deadlines.onlyBelow",
}

// TestEverySpecFieldIsSetByARun is TestEveryParamIsSetByARun for the
// spec format itself, over the marshalled specs of every run — a golden
// figure's, or a checked-in JSON file that loads as a spec or as a list
// of them. Fields are keyed by (struct, JSON field), so Link.delay is
// one field wherever a Link sits. A field fails when every instance of
// its struct gives it one value, absence counting as a value: a field
// no run sets is a constant under another name, and so is one every
// run sets alike (RepFlow's copies were always 2, its threshold always
// 100KB). oneValuedFields exempts a field with its reason; an exemption
// whose field now takes two values fails too, so the list stays true.
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
	var oneValued, stale []string
	for _, f := range specFields(reflect.TypeOf(spec.Spec{}), nil) {
		_, exempt := oneValuedFields[f]
		only := "(no instance)"
		for v := range set[f] {
			only = v
		}
		switch {
		case len(set[f]) <= 1 && !exempt:
			oneValued = append(oneValued, f+" = "+only)
		case len(set[f]) > 1 && exempt:
			stale = append(stale, f)
		}
	}
	if len(oneValued) > 0 {
		t.Errorf("spec fields every run sets to one value (make each a constant, or exempt it with its reason):\n  %s",
			strings.Join(oneValued, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("exempt spec fields that runs set to more than one value (drop the exemption): %s", strings.Join(stale, " "))
	}
}

// TestSchemesAtASweepPointShareTheirFlows: within each golden batch,
// the specs that differ only in name, scheme and replication form one
// sweep point, and every such point runs every scheme of its batch on
// the same flows. The first and last spec of a point compile to sources
// that yield the same flows, so a paired comparison across schemes at
// one seed compares balancers, not workloads.
func TestSchemesAtASweepPointShareTheirFlows(t *testing.T) {
	if !goldenRuns.complete {
		t.Skip("reads what TestGoldenFigures' runs collected: run them together (as `go test` and `make identity` do)")
	}
	type point struct {
		specs   [][]byte
		schemes map[string]bool
	}
	var batches []string
	for batch := range goldenRuns.batches {
		batches = append(batches, batch)
	}
	slices.Sort(batches)
	for _, batch := range batches {
		schemes := map[string]bool{}
		var points []*point
		byKey := map[string]*point{}
		for _, data := range goldenRuns.batches[batch] {
			var doc map[string]any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			name := doc["scheme"].(map[string]any)["name"].(string)
			delete(doc, "name")
			delete(doc, "scheme")
			delete(doc, "replicate")
			key, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			p := byKey[string(key)]
			if p == nil {
				p = &point{schemes: map[string]bool{}}
				byKey[string(key)] = p
				points = append(points, p)
			}
			p.specs = append(p.specs, data)
			p.schemes[name] = true
			schemes[name] = true
		}
		for i, p := range points {
			if !maps.Equal(p.schemes, schemes) {
				t.Errorf("%s point %d runs %v of the batch's schemes %v", batch, i, p.schemes, schemes)
			}
			if first, last := compiledFlows(t, p.specs[0]), compiledFlows(t, p.specs[len(p.specs)-1]); !slices.Equal(first, last) {
				t.Errorf("%s point %d: its first and last spec draw different flows", batch, i)
			}
		}
	}
}

// compiledFlows compiles a marshalled spec and drains its workload.
func compiledFlows(t *testing.T, data []byte) []workload.Flow {
	t.Helper()
	sp, err := spec.LoadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return workload.Collect(sc.FlowSourceNew())
}

// fieldValues maps each spec field, "Struct.jsonField", to the values
// its struct's instances give it: each its JSON text, or absentValue.
type fieldValues map[string]map[string]bool

// absentValue is the value of a field an instance does not set.
const absentValue = "(absent)"

func (fv fieldValues) add(field, value string) {
	if fv[field] == nil {
		fv[field] = map[string]bool{}
	}
	fv[field][value] = true
}

// collectSpecFields adds the value of every field of every struct
// instance in a marshalled spec, walking the JSON alongside the spec's
// types.
func collectSpecFields(data []byte, set fieldValues) {
	var doc any
	if err := json.Unmarshal(data, &doc); err == nil {
		walkSpecFields(reflect.TypeOf(spec.Spec{}), doc, set)
	}
}

func walkSpecFields(typ reflect.Type, doc any, set fieldValues) {
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
			child, ok := v[name]
			if !ok {
				set.add(typ.Name()+"."+name, absentValue)
				continue
			}
			text, _ := json.Marshal(child)
			set.add(typ.Name()+"."+name, string(text))
			walkSpecFields(f.Type, child, set)
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
