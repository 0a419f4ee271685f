package experiments

import (
	"strings"
	"testing"

	"tlb/internal/core"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/units"
	"tlb/internal/workload"
)

func quickOpts() Options {
	return Options{Seed: 42, FlowsPerRun: 120, SweepPoints: 2}
}

func TestRegistryCoversEveryPaperFigure(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
	}
	got := map[string]bool{}
	for _, e := range Registry() {
		got[e.Name] = true
		if e.Run == nil {
			t.Fatalf("entry %s has no runner", e.Name)
		}
		if e.Description == "" {
			t.Fatalf("entry %s has no description", e.Name)
		}
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("registry missing %s", w)
		}
	}
}

func TestLookup(t *testing.T) {
	all, err := Lookup("all")
	if err != nil || len(all) != len(Registry()) {
		t.Fatalf("all: %v (%d entries)", err, len(all))
	}
	two, err := Lookup("fig10, fig13")
	if err != nil || len(two) != 2 || two[0].Name != "fig10" || two[1].Name != "fig13" {
		t.Fatalf("pair lookup: %v %v", err, two)
	}
	dedup, err := Lookup("fig10,fig10")
	if err != nil || len(dedup) != 1 {
		t.Fatalf("dedup lookup: %v %v", err, dedup)
	}
	abl, err := Lookup("ablations")
	if err != nil || len(abl) == 0 {
		t.Fatalf("ablations lookup: %v", err)
	}
	for _, e := range abl {
		if !strings.HasPrefix(e.Name, "ablation-") {
			t.Fatalf("non-ablation %s in ablations set", e.Name)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestTrim(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	o := Options{SweepPoints: 3}
	got := trim(o, xs)
	if len(got) != 3 || got[0] != 1 || got[2] != 8 {
		t.Fatalf("trim = %v", got)
	}
	if got := trim(Options{}, xs); len(got) != len(xs) {
		t.Fatal("no-op trim changed length")
	}
	if got := trim(Options{SweepPoints: 1}, xs); len(got) != 1 || got[0] != 8 {
		t.Fatalf("1-point trim = %v", got)
	}
	if got := trim(Options{SweepPoints: 20}, xs); len(got) != len(xs) {
		t.Fatal("over-trim changed length")
	}
}

func TestFig3And4ProducesAllPanels(t *testing.T) {
	figs, err := Fig3And4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]Figure{}
	for _, f := range figs {
		ids[f.ID] = f
	}
	for _, id := range []string{"fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c"} {
		if _, ok := ids[id]; !ok {
			t.Fatalf("missing panel %s", id)
		}
	}
	// Each of 3 granularities contributes one curve or bar per panel.
	if len(ids["fig3a"].Series) != 3 || len(ids["fig3b"].Bars) != 3 {
		t.Fatalf("panel population wrong: %d series, %d bars",
			len(ids["fig3a"].Series), len(ids["fig3b"].Bars))
	}
	// The paper's directional claims at this scale:
	// packet-level has the largest dup-ACK ratio (fig3b).
	bars := map[string]float64{}
	for _, b := range ids["fig3b"].Bars {
		bars[b.Label] = b.Value
	}
	if !(bars["packet"] > bars["flow"]) {
		t.Fatalf("packet-level dup-ACK ratio %v not above flow-level %v",
			bars["packet"], bars["flow"])
	}
}

func TestFig13NormalizedToTLB(t *testing.T) {
	o := quickOpts()
	figs, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		if len(f.Series) != 5 {
			t.Fatalf("%s has %d series, want 5 schemes", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if s.Name != "tlb" {
				continue
			}
			for _, p := range s.Points {
				if p.Y != 1 {
					t.Fatalf("TLB's normalized value is %v, want exactly 1", p.Y)
				}
			}
		}
	}
}

func TestFig15ReportsAllSchemes(t *testing.T) {
	figs, err := Fig15(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("%d figures", len(figs))
	}
	for _, f := range figs {
		if len(f.Bars) != 5 {
			t.Fatalf("%s has %d bars, want 5", f.ID, len(f.Bars))
		}
		for _, b := range f.Bars {
			if b.Value < 0 {
				t.Fatalf("%s: negative metric for %s", f.ID, b.Label)
			}
		}
	}
}

func TestFigureFormat(t *testing.T) {
	f := Figure{ID: "x", Title: "T", XLabel: "a", YLabel: "b"}
	f.Bars = []Bar{{"one", 1.5}}
	out := f.Format()
	for _, want := range []string{"== x: T ==", "one", "1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q: %s", want, out)
		}
	}
}

func TestLargeEnvLoadCalibration(t *testing.T) {
	env := newLargeEnv(websearchSizes(), 500)
	sp := env.spec(Scheme{Name: "ecmp"}, 0.5, 6) // workload seed 7
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	flows := workload.Collect(sc.FlowSourceNew())
	// Offered bytes over the arrival span should be ~0.5x the fabric
	// capacity.
	var bytes float64
	for _, f := range flows {
		bytes += float64(f.Size)
	}
	span := (flows[len(flows)-1].Start - flows[0].Start).Seconds()
	fabric := float64(env.topo.Leaves) * float64(env.topo.Spines) * env.topo.FabricLink.Bandwidth.BytesPerSecond()
	load := bytes / span / fabric
	if load < 0.35 || load > 0.65 {
		t.Fatalf("realized load %.2f, want ~0.5", load)
	}
	for _, f := range flows {
		if env.topo.Hosts() <= f.Src || env.topo.Hosts() <= f.Dst {
			t.Fatal("flow endpoints out of range")
		}
		if f.Src/env.topo.HostsPerLeaf == f.Dst/env.topo.HostsPerLeaf {
			t.Fatal("intra-leaf flow in cross-leaf workload")
		}
	}
}

func TestBasicEnvTLBConfigMatchesTopology(t *testing.T) {
	env := newBasicEnv(256, 100, 3)
	cfg, err := core.NewConfig(nil, spec.Env(env.topo))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Env.FabricBandwidth != units.Gbps {
		t.Fatalf("bandwidth %v", cfg.Env.FabricBandwidth)
	}
	if cfg.Env.BaseRTT != env.topo.BaseRTT() {
		t.Fatalf("RTT %v vs %v", cfg.Env.BaseRTT, env.topo.BaseRTT())
	}
	if cfg.Env.QueueCapacity != 256 {
		t.Fatalf("q_th cap %d", cfg.Env.QueueCapacity)
	}
}

// TestExperimentDeterminism: the same seed must reproduce a figure
// exactly — the reproducibility contract of the whole harness.
func TestExperimentDeterminism(t *testing.T) {
	run := func() string {
		figs, err := Fig13(Options{Seed: 7, FlowsPerRun: 100, SweepPoints: 2})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, f := range figs {
			out += f.CSV()
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different figures:\n%s\nvs\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty figures")
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{ID: "x", Title: "T"}
	f.Bars = []Bar{{"a", 1}}
	f.Series = []stats.Series{{Name: "s", Points: []stats.Point{{X: 1, Y: 2}}}}
	csv := f.CSV()
	for _, want := range []string{"# x,T", "a,1", "s,1,2"} {
		if !strings.Contains(csv, want) {
			t.Fatalf("CSV missing %q:\n%s", want, csv)
		}
	}
}

// TestFatTreeComparisonRuns exercises the 3-tier experiment end to end
// at tiny scale.
func TestFatTreeComparisonRuns(t *testing.T) {
	figs, err := FatTreeComparison(Options{Seed: 3, FlowsPerRun: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("%d figures", len(figs))
	}
	for _, f := range figs {
		if len(f.Bars) != 5 {
			t.Fatalf("%s: %d bars", f.ID, len(f.Bars))
		}
		for _, b := range f.Bars {
			if b.Value <= 0 {
				t.Fatalf("%s: non-positive %s", f.ID, b.Label)
			}
		}
	}
}
