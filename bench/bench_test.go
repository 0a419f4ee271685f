package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"
)

// smokeScale divides every workload's flow count: the smoke test runs
// the full harness path in-process in a few seconds.
const smokeScale = 50

// TestSmoke runs every workload once untraced and once traced at
// reduced scale and checks what the benchmark promises: the traced pass
// leaves the digest unchanged, the sharded workload reproduces its
// baseline, no flow fails, and the metric names emitted are exactly the
// ones BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	untraced := map[string]*repReport{}
	all := map[string]*workloadRuns{}
	for _, w := range workloads {
		u, err := runRep(w, defaultSeed, false, smokeScale)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tr, err := runRep(w, defaultSeed, true, smokeScale)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		untraced[w.Name] = u
		runs := &workloadRuns{def: w, seed: defaultSeed, untraced: []*repReport{u}, traced: []*repReport{tr}}
		all[w.Name] = runs
		if err := runs.sampleSetup(1); err != nil {
			t.Fatal(err)
		}
		if w.Baseline != "" {
			runs.baseline = []*repReport{untraced[w.Baseline]}
		}
		res := runs.result(-1, "")
		if !res.Correct {
			t.Errorf("%s: output check failed: attempted %d, failed %d, %v", w.Name, res.Attempted, res.Failed, res.Notes)
		}
		if u.Events == 0 || u.PacketHops == 0 || tr.Events != u.Events || tr.PacketHops != u.PacketHops {
			t.Errorf("%s: events/packet-hops %d/%d untraced, %d/%d traced", w.Name, u.Events, u.PacketHops, tr.Events, tr.PacketHops)
		}

		for pass, defs := range [][]metricDef{endToEnd, perLayer} {
			var line bytes.Buffer
			if err := printResultLine(&line, res, pass); err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if got.Correct == nil || got.Attempted < 1 || len(got.Metrics) != len(defs) {
				t.Errorf("%s pass %d: result line %s", w.Name, pass, line.String())
			}
			for _, d := range defs {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %+v (present %v)", w.Name, d.Name, m, ok)
				}
				if pass == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s must be positive, got %g", w.Name, d.Name, m.Value)
				}
			}
		}
	}

	// A twin run alongside its baseline is checked and reported under the
	// baseline's name.
	for _, twin := range all {
		base := all[twin.def.Baseline]
		if base == nil {
			continue
		}
		alone := base.result(1, "")
		base.twin = twin
		res := base.result(1, "")
		if !res.Correct || res.Attempted <= alone.Attempted || res.PerLayer["sim.shard_speedup"] <= 0 {
			t.Errorf("%s with %s alongside: correct %v, attempted %d (alone %d), shard_speedup %g",
				base.def.Name, twin.def.Name, res.Correct, res.Attempted, alone.Attempted, res.PerLayer["sim.shard_speedup"])
		}
		twin.untraced[0].Digest = "changed"
		if res := base.result(1, ""); res.Correct || res.Failed == 0 {
			t.Errorf("%s: a twin digest that differs must fail the output check", base.def.Name)
		}
	}

	// The harness tables and BENCHMARK.json name the same things.
	names := func(defs []metricDef) []string {
		out := make([]string, len(defs))
		for i, d := range defs {
			out[i] = d.Name + " " + d.Unit
		}
		sort.Strings(out)
		return out
	}
	var specE2E, specLayer []metricDef
	for _, m := range spec.EndToEnd {
		specE2E = append(specE2E, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		specLayer = append(specLayer, metricDef{m.Name, m.Unit})
	}
	if a, b := names(endToEnd), names(specE2E); !slices.Equal(a, b) {
		t.Errorf("end-to-end metrics: harness %v, BENCHMARK.json %v", a, b)
	}
	if a, b := names(perLayer), names(specLayer); !slices.Equal(a, b) {
		t.Errorf("per-layer metrics: harness %v, BENCHMARK.json %v", a, b)
	}
	var gated, listed []string
	for _, w := range workloads {
		if w.Ungated == "" {
			gated = append(gated, w.Name)
		}
	}
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(gated, listed) {
		t.Errorf("workloads: BENCHMARK.json lists %v, the harness gates %v", listed, gated)
	}
}

// TestDigestDeterminism: the same seed gives the same digest, another
// seed another one.
func TestDigestDeterminism(t *testing.T) {
	w, _ := findWorkload("scheme-sweep")
	a, err := runRep(w, 7, false, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(w, 7, false, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runRep(w, 8, false, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.Events != b.Events || a.PacketHops != b.PacketHops {
		t.Errorf("seed 7 twice: digests %.12s / %.12s, events %d / %d", a.Digest, b.Digest, a.Events, b.Events)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 7 and 8 give the same digest %.12s", a.Digest)
	}
}

// TestQuartiles pins the spread rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %g %g %g, want 1 2 3", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	of := func(samples ...float64) measured { return measured{median(samples), samples} }
	steady := of(10, 10.1, 9.9, 10, 10.05)
	for _, tc := range []struct {
		name     string
		old, new measured
		want     string
	}{
		{"same", steady, steady, "within bound"},
		{"slower", steady, of(12, 12.1, 11.9, 12, 12.05), "worse"},
		{"faster", steady, of(8, 8.1, 7.9, 8, 8.05), "better"},
		{"noisy", steady, of(8, 12, 10, 14, 9), "unresolved"},
		{"noisy but disjoint", of(20, 30, 25, 22, 28), of(8, 12, 10, 14, 9), "better"},
	} {
		if got, _ := verdict(tc.old, tc.new, true, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
