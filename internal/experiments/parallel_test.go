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

// matchesGoldenAt renders the named golden entry on a pool of the given
// size: the figures must reproduce its serially rendered golden file
// byte for byte. Scenarios own their seeds and results are reduced in
// input order, so scheduling must not be observable.
func matchesGoldenAt(t *testing.T, name string, workers int) {
	t.Helper()
	g, err := goldenEntry(name)
	if err != nil {
		t.Fatal(err)
	}
	o := g.opts
	o.Workers = workers
	figs, err := render(name, o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := figureCSV(figs); got != string(want) {
		t.Fatalf("%s at %d workers diverges from its serial golden:\n%s", name, workers, got)
	}
}

// TestParallelSerialIdenticalFigures is the determinism contract of
// the shared sweep runner: the basic-environment comparison with the
// time series on, at eight workers, reproduces its serial golden.
func TestParallelSerialIdenticalFigures(t *testing.T) {
	matchesGoldenAt(t, "fig8-9", 8)
}

// TestParallelSerialIdenticalLargeSweep covers the batched load-grid
// path (and with it the Poisson workload generation), which fans out
// the widest in the figure suite: the pinned fig10 and fig12 sweeps at
// six workers.
func TestParallelSerialIdenticalLargeSweep(t *testing.T) {
	matchesGoldenAt(t, "fig10", 6)
	matchesGoldenAt(t, "fig12", 6)
}
