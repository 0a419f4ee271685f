package experiments

import (
	"strings"
	"testing"

	"tlb/internal/units"
)

// TestFigF1ParallelSerialIdentical extends the sweep runner's
// determinism contract to runs that carry a fault schedule: injected
// events ride the same event queue as everything else, so the pinned
// figF1 batch at six workers must reproduce its serial golden.
func TestFigF1ParallelSerialIdentical(t *testing.T) {
	matchesGoldenAt(t, "figF1", 6)
}

// TestFigF1TLBDegradesLessThanECMP is the experiment's headline claim:
// during the failure window TLB notices the dead uplinks (its own
// dead-port reroute plus the liveness-aware delay scan) while ECMP
// keeps hashing a fifth of its flows into a black hole until their
// RTOs fire. TLB's failure-window short AFCT must therefore inflate
// strictly less than ECMP's, relative to each scheme's own pre-failure
// baseline.
func TestFigF1TLBDegradesLessThanECMP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figF1 batch")
	}
	figs, err := FigF1(Options{Seed: 42, FlowsPerRun: 240, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	bars := figs[2] // figF1c: "<scheme> pre|fail|post" bars
	window := map[string]map[string]float64{}
	for _, b := range bars.Bars {
		scheme, phase, ok := strings.Cut(b.Label, " ")
		if !ok {
			t.Fatalf("unparseable bar label %q", b.Label)
		}
		if window[scheme] == nil {
			window[scheme] = map[string]float64{}
		}
		window[scheme][phase] = b.Value
	}
	inflation := func(scheme string) float64 {
		w := window[scheme]
		if w == nil || w["pre"] <= 0 || w["fail"] <= 0 {
			t.Fatalf("missing pre/fail AFCT for %s: %v", scheme, w)
		}
		return w["fail"] / w["pre"]
	}
	ecmp, tlb := inflation("ecmp"), inflation("tlb")
	if tlb >= ecmp {
		t.Fatalf("TLB failure-window AFCT inflation %.2fx not below ECMP's %.2fx", tlb, ecmp)
	}
}

// TestFigF2SmallSweepRuns checks the flap-schedule path on its golden
// render: every scheme must survive repeated down/up cycles and still
// produce non-degenerate normalized panels.
func TestFigF2SmallSweepRuns(t *testing.T) {
	t.Parallel()
	figs := golden(t, "figF2")
	if len(figs) != 2 {
		t.Fatalf("got %d panels, want 2", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) == 0 {
			t.Fatalf("panel %s has no series", f.ID)
		}
		for _, s := range f.Series {
			for _, p := range s.Points {
				if p.Y <= 0 {
					t.Fatalf("panel %s series %s has non-positive point %+v", f.ID, s.Name, p)
				}
			}
		}
	}
}

// TestFigF1PhasesPartitionWindow pins the phase boundaries so a future
// edit can't silently overlap or gap the pre/fail/post windows.
func TestFigF1PhasesPartitionWindow(t *testing.T) {
	if figF1FailAt <= 0 || figF1RecoverAt <= figF1FailAt || figF1Window <= figF1RecoverAt {
		t.Fatalf("phase boundaries out of order: 0 < %v < %v < %v expected",
			figF1FailAt, figF1RecoverAt, figF1Window)
	}
	if figF1RecoverAt-figF1FailAt != 3*units.Second {
		t.Fatalf("failure window %v, want 3 s", figF1RecoverAt-figF1FailAt)
	}
}
