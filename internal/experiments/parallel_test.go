package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// figureCSV concatenates every panel's CSV rendering — the byte-level
// identity the parallel runner must preserve.
func figureCSV(figs []Figure) string {
	out := ""
	for _, f := range figs {
		out += f.CSV()
	}
	return out
}

// TestParallelSerialIdenticalFigures is the determinism contract of
// the shared sweep runner: the same figure run serially (Workers: 1)
// and with a full worker pool (Workers: 8) must produce byte-identical
// CSV output. Scenarios own their seeds and results are reduced in
// input order, so scheduling must not be observable.
func TestParallelSerialIdenticalFigures(t *testing.T) {
	run := func(workers int) string {
		figs, err := Fig8And9(Options{Seed: 11, FlowsPerRun: 100, SweepPoints: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return figureCSV(figs)
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatalf("Workers=1 and Workers=8 diverge:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("empty figures")
	}
}

// TestParallelSerialIdenticalLargeSweep covers the batched load-grid
// path (and with it the Poisson workload generation), which fans out
// the widest in the figure suite. TestGoldenFigures already renders
// the pinned fig10 and fig12 sweeps serially and compares them with
// their goldens, so here a six-worker pool must reproduce the same
// files byte for byte.
func TestParallelSerialIdenticalLargeSweep(t *testing.T) {
	for _, g := range goldenFigures {
		if g.name != "fig10" && g.name != "fig12" {
			continue
		}
		o := g.opts
		o.Workers = 6
		figs, err := g.run(o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", g.name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got := figureCSV(figs); got != string(want) {
			t.Fatalf("%s at 6 workers diverges from its serial golden:\n%s", g.name, got)
		}
	}
}
