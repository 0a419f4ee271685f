package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"strings"

	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// The workload specs and the pinned default-seed digests are embedded
// so a repetition's child process needs nothing but its own binary.
//
//go:embed workloads/*.json golden/digests.json
var files embed.FS

// defaultSeed is the seed the checked-in digests are pinned at.
const defaultSeed = 42

// workloadDef is one named workload: a checked-in spec file plus the
// constants of how it is run. Workers and shards are workload
// constants, never derived from the host's core count, so the same
// name means the same work on every box.
type workloadDef struct {
	Name string
	// File is the spec under workloads/: one scenario object, or a
	// campaign array run as one sim.RunSweep.
	File string
	// Workers is the sweep's worker count; 0 runs the single scenario
	// through one sim.Session.
	Workers int
	// Window is the session's snapshot period in simulated time, chosen
	// so a repetition splits into a few hundred windows of about twenty
	// wall milliseconds each (see windowedScale).
	Window units.Time
	// Baseline names the workload this one must reproduce digest for
	// digest (the sharded run against the single-engine run).
	Baseline string
	// Ungated says why BENCHMARK.json does not list the workload: the
	// harness runs and reports it, the benchmark driver does not gate it.
	Ungated string
	// RatioOver/RatioUnder name the two sweep scenarios whose
	// short-flow AFCT ratio is the paper's headline ordering.
	RatioOver, RatioUnder string
}

// workloads is the benchmark's fixed workload table, in report order.
// BENCHMARK.json records why each was chosen.
var workloads = []workloadDef{
	{Name: "leafspine-websearch", File: "leafspine-websearch.json", Window: 4 * units.Millisecond},
	{Name: "fattree-mice", File: "fattree-mice.json", Window: 100 * units.Microsecond},
	{Name: "fattree-mice-sharded", File: "fattree-mice-sharded.json", Window: 100 * units.Microsecond,
		Baseline: "fattree-mice",
		Ungated:  "two shard goroutines in lockstep plus the collector on a shared two-core host time the host's scheduler and memory system: identical runs spread past any bound the benchmark may set. It runs alongside fattree-mice's traced pass instead, which checks its digest and reports sim.shard_*."},
	{Name: "scheme-sweep", File: "scheme-sweep.json", Window: 10 * units.Millisecond, Workers: 2,
		RatioOver: "ecmp-load0.7", RatioUnder: "tlb-load0.7"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// specDocs returns the workload file's scenario documents: the
// elements of a campaign array, or the single object.
func (w workloadDef) specDocs() ([]json.RawMessage, error) {
	data, err := files.ReadFile("workloads/" + w.File)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		var docs []json.RawMessage
		if err := json.Unmarshal(data, &docs); err != nil {
			return nil, fmt.Errorf("%s: %w", w.File, err)
		}
		return docs, nil
	}
	return []json.RawMessage{data}, nil
}

// compiled is one scenario of a workload after set-up, with the time
// each set-up stage took.
type compiled struct {
	sc                            sim.Scenario
	loadNs, validateNs, compileNs int64
}

// compile is the set-up path a user pays before a run can start: spec
// bytes to runnable scenarios through spec.LoadBytes, Validate and
// Compile (eager flow generation included). The seed is the harness
// argument, written into every spec before compilation; scale > 1
// divides the flow counts for the in-process smoke test.
func (w workloadDef) compile(seed uint64, scale int) ([]compiled, error) {
	docs, err := w.specDocs()
	if err != nil {
		return nil, err
	}
	out := make([]compiled, len(docs))
	for i, doc := range docs {
		t0 := now()
		sp, err := spec.LoadBytes(doc)
		if err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", w.File, i, err)
		}
		sp.Seed = seed
		scaleFlows(sp, scale)
		t1 := now()
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", w.File, i, err)
		}
		t2 := now()
		sc, err := sp.Compile()
		if err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", w.File, i, err)
		}
		t3 := now()
		out[i] = compiled{sc: sc, loadNs: t1 - t0, validateNs: t2 - t1, compileNs: t3 - t2}
	}
	return out, nil
}

func scaleFlows(sp *spec.Spec, scale int) {
	if scale <= 1 {
		return
	}
	if sp.Workload.Flows > 0 {
		sp.Workload.Flows = max(sp.Workload.Flows/scale, 1)
	}
	if ip := sp.Workload.InterPod; ip != nil {
		ip.Flows = max(ip.Flows/scale, 1)
	}
}

// offered returns the scenario's input size: flows and payload bytes.
// It reads the generated inputs (a fresh copy of a lazy source), never
// anything the run computes.
func offered(sc *sim.Scenario) (flows int64, bytes units.Bytes) {
	count := func(f workload.Flow) {
		flows++
		bytes += f.Size
	}
	for _, f := range sc.Flows {
		count(f)
	}
	if sc.FlowSourceNew != nil {
		src := sc.FlowSourceNew()
		for f, ok := src.Next(); ok; f, ok = src.Next() {
			count(f)
		}
	}
	return flows, bytes
}
