package experiments

import (
	"os"
	"path/filepath"
	"testing"
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
