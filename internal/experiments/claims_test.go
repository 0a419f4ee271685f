package experiments

import (
	"slices"
	"testing"
)

// The claim tests: one per verdict of EXPERIMENTS.md, each read off the
// golden renders TestGoldenFigures shares, so none starts a simulation
// of its own. A test for a reproduced shape (✅) asserts the paper's
// claim. A test for a divergence (⚠️) asserts what the golden shows and
// says so in its name, so a change that moves a figure toward (or away
// from) the paper fails here and its verdict is rewritten with it.

// panel returns the golden entry's figure with the given ID.
func panel(t *testing.T, entry, id string) Figure {
	t.Helper()
	for _, f := range golden(t, entry) {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("golden %s has no panel %s", entry, id)
	return Figure{}
}

// bars maps each bar's label to its value.
func bars(f Figure) map[string]float64 {
	m := make(map[string]float64, len(f.Bars))
	for _, b := range f.Bars {
		m[b.Label] = b.Value
	}
	return m
}

// at maps each series to its value at x.
func at(f Figure, x float64) map[string]float64 {
	m := map[string]float64{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.X == x {
				m[s.Name] = p.Y
			}
		}
	}
	return m
}

// xs lists the x values of a figure's first series.
func xs(t *testing.T, f Figure) []float64 {
	t.Helper()
	if len(f.Series) == 0 || len(f.Series[0].Points) == 0 {
		t.Fatalf("%s has no points", f.ID)
	}
	var out []float64
	for _, p := range f.Series[0].Points {
		out = append(out, p.X)
	}
	return out
}

// strictlyDescending fails unless m's values for keys are in strictly
// descending order.
func strictlyDescending(t *testing.T, what string, m map[string]float64, keys ...string) {
	t.Helper()
	for i := 1; i < len(keys); i++ {
		if !(m[keys[i-1]] > m[keys[i]]) {
			t.Errorf("%s: %s %v not above %s %v", what, keys[i-1], m[keys[i-1]], keys[i], m[keys[i]])
		}
	}
}

// best returns the key with the lowest value (lower) or the highest
// (!lower), and whether it is strictly ahead of every other key.
func best(m map[string]float64, lower bool) (string, bool) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	win, strict := "", false
	for _, k := range keys {
		switch {
		case win == "" || (lower && m[k] < m[win]) || (!lower && m[k] > m[win]):
			win, strict = k, true
		case m[k] == m[win]:
			strict = false
		}
	}
	return win, strict
}

// wantBest fails unless want strictly leads m.
func wantBest(t *testing.T, what string, m map[string]float64, want string, lower bool) {
	t.Helper()
	if got, strict := best(m, lower); got != want || !strict {
		t.Errorf("%s: %s leads (strictly %v), want %s strictly ahead: %v", what, got, strict, want, m)
	}
}

// schemesBelow lists, sorted, the keys whose value is below m[ref].
func schemesBelow(m map[string]float64, ref string) []string {
	var out []string
	for k, v := range m {
		if v < m[ref] {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// TestFig3DupACKsGrowAsGranularityShrinks: a short flow sprayed per
// packet sees the most duplicate ACKs, per flowlet fewer, per flow none
// (Fig. 3b).
func TestFig3DupACKsGrowAsGranularityShrinks(t *testing.T) {
	t.Parallel()
	dup := bars(panel(t, "fig3-4", "fig3b"))
	strictlyDescending(t, "fig3b dup-ACK ratio", dup, "packet", "flowlet", "flow")
	if dup["flow"] != 0 {
		t.Errorf("fig3b: flow-level dup-ACK ratio %v, want 0", dup["flow"])
	}
}

// TestFig3aQueueSeenDoesNotFollowGranularity pins a divergence: the
// paper's short flows see longer queues the coarser the granularity,
// but in the golden the three CDFs overlap (medians within two packets)
// and packet-level spraying has the longest tail.
func TestFig3aQueueSeenDoesNotFollowGranularity(t *testing.T) {
	t.Parallel()
	median, tail := map[string]float64{}, map[string]float64{}
	for _, s := range panel(t, "fig3-4", "fig3a").Series {
		for _, p := range s.Points { // (queue length, cumulative share)
			if _, ok := median[s.Name]; !ok && p.Y >= 0.5 {
				median[s.Name] = p.X
			}
			tail[s.Name] = p.X
		}
	}
	if len(median) != 3 {
		t.Fatalf("fig3a: medians of %v, want three granularities", median)
	}
	lo, hi := median["packet"], median["packet"]
	for _, v := range median {
		lo, hi = min(lo, v), max(hi, v)
	}
	if hi-lo > 2 {
		t.Errorf("fig3a: medians %v spread %v packets, the golden overlaps within 2", median, hi-lo)
	}
	wantBest(t, "fig3a longest tail", tail, "packet", false)
}

// TestFig4LongFlowsReorderMoreAndSlowAsGranularityShrinks: long flows
// see more out-of-order arrivals (Fig. 4b) and less throughput (Fig. 4c)
// as the switching granularity shrinks from flow to flowlet to packet.
func TestFig4LongFlowsReorderMoreAndSlowAsGranularityShrinks(t *testing.T) {
	t.Parallel()
	ooo := bars(panel(t, "fig3-4", "fig4b"))
	strictlyDescending(t, "fig4b out-of-order ratio", ooo, "packet", "flowlet", "flow")
	if ooo["flow"] != 0 {
		t.Errorf("fig4b: flow-level out-of-order ratio %v, want 0", ooo["flow"])
	}
	strictlyDescending(t, "fig4c long throughput", bars(panel(t, "fig3-4", "fig4c")), "flow", "flowlet", "packet")
}

// TestFig7ModelThresholdShapes: Eq. 9's q_th rises with the number of
// short flows (7a) and long flows (7b) and falls with the number of
// paths (7c) and the deadline (7d).
func TestFig7ModelThresholdShapes(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		id     string
		rising bool
	}{{"fig7a", true}, {"fig7b", true}, {"fig7c", false}, {"fig7d", false}} {
		f := panel(t, "fig7", c.id)
		x := xs(t, f)
		first, last := at(f, x[0])["model"], at(f, x[len(x)-1])["model"]
		if (last > first) != c.rising || last == first {
			t.Errorf("%s: model q_th %v at x=%v, %v at x=%v; rising=%v wanted", c.id, first, x[0], last, x[len(x)-1], c.rising)
		}
	}
}

// TestFig7SimulatedThresholdIsZeroExceptAtTightestDeadline pins a
// divergence: the binary search for the least q_th that meets every
// deadline finds 0 at every setup, since a DCTCP long flow cannot send
// Eq. 1's demand, except at the 5 ms deadline, where no threshold
// suffices and the search ends at the buffer (512 packets).
func TestFig7SimulatedThresholdIsZeroExceptAtTightestDeadline(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig7a", "fig7b", "fig7c", "fig7d"} {
		f := panel(t, "fig7", id)
		for _, x := range xs(t, f) {
			want := 0.0
			if id == "fig7d" && x == 5 {
				want = 512
			}
			if got := at(f, x)["simulation"]; got != want {
				t.Errorf("%s at x=%v: simulated q_th %v, the golden reads %v", id, x, got, want)
			}
		}
	}
}

// TestFig8And9TLBHasBestLongGoodput: over the whole basic run, TLB's
// long flows have the highest goodput of the five schemes (Fig. 9b).
func TestFig8And9TLBHasBestLongGoodput(t *testing.T) {
	t.Parallel()
	wantBest(t, "fig8-9 long goodput", bars(panel(t, "fig8-9", "fig8-9-summary")), "tlb", false)
}

// TestFig10And11TLBCutsECMPShortAFCT: at the highest load TLB's short
// flows finish at least 20 % sooner on average than ECMP's, on web
// search (Fig. 10a) and data mining (Fig. 11a).
func TestFig10And11TLBCutsECMPShortAFCT(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig10a", "fig11a"} {
		entry := id[:len(id)-1]
		f := panel(t, entry, id)
		x := xs(t, f)
		afct := at(f, x[len(x)-1])
		if r := afct["tlb"] / afct["ecmp"]; !(r < 0.8) {
			t.Errorf("%s at load %v: TLB AFCT is %.3f of ECMP's, want below 0.8", id, x[len(x)-1], r)
		}
	}
}

// TestFig10And11TLBShortAFCTIsNotBest pins a divergence: the paper has
// TLB ahead of every scheme on short AFCT, but at the golden scale RPS
// and Presto beat it on web search and Presto and LetFlow on data
// mining.
func TestFig10And11TLBShortAFCTIsNotBest(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		entry, id string
		ahead     []string
	}{
		{"fig10", "fig10a", []string{"presto", "rps"}},
		{"fig11", "fig11a", []string{"letflow", "presto"}},
	} {
		f := panel(t, c.entry, c.id)
		x := xs(t, f)
		if got := schemesBelow(at(f, x[len(x)-1]), "tlb"); !slices.Equal(got, c.ahead) {
			t.Errorf("%s: schemes with a lower AFCT than TLB %v, the golden has %v", c.id, got, c.ahead)
		}
	}
}

// TestFig10And11TLBHasLowestLongGoodput pins a divergence: the paper's
// TLB keeps long-flow goodput competitive, but in the golden its long
// flows have the lowest goodput of the five schemes on both workloads.
func TestFig10And11TLBHasLowestLongGoodput(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig10d", "fig11d"} {
		f := panel(t, id[:len(id)-1], id)
		x := xs(t, f)
		wantBest(t, id+" lowest long goodput", at(f, x[len(x)-1]), "tlb", true)
	}
}

// TestFig12DeadlinePercentilesAreIdentical pins a divergence: the paper
// shows the 5th/25th-percentile deadline settings ahead on FCT and
// behind on goodput, but in the golden all four settings give the same
// number at every load on every panel.
func TestFig12DeadlinePercentilesAreIdentical(t *testing.T) {
	t.Parallel()
	for _, f := range golden(t, "fig12") {
		if len(f.Series) != 4 {
			t.Fatalf("%s has %d series, want 4 percentiles", f.ID, len(f.Series))
		}
		for _, s := range f.Series[1:] {
			if !slices.Equal(s.Points, f.Series[0].Points) {
				t.Errorf("%s: %s %v differs from %s %v", f.ID, s.Name, s.Points, f.Series[0].Name, f.Series[0].Points)
			}
		}
	}
}

// normalizedTLBBest checks a TLB-normalized testbed panel: five
// schemes, TLB exactly 1, and, when the panel says so, every other
// scheme strictly worse at every point (AFCT above 1, goodput below).
func normalizedTLBBest(t *testing.T, f Figure, lower bool) {
	t.Helper()
	if len(f.Series) != 5 {
		t.Fatalf("%s has %d series, want 5 schemes", f.ID, len(f.Series))
	}
	for _, x := range xs(t, f) {
		m := at(f, x)
		if m["tlb"] != 1 {
			t.Errorf("%s at x=%v: TLB's normalized value is %v, want exactly 1", f.ID, x, m["tlb"])
		}
		wantBest(t, f.ID, m, "tlb", lower)
	}
}

// TestFig13TLBBestOnBothAxes: varying the number of short flows, TLB
// has the lowest short AFCT and the highest long goodput (Fig. 13).
func TestFig13TLBBestOnBothAxes(t *testing.T) {
	t.Parallel()
	normalizedTLBBest(t, panel(t, "fig13", "fig13a"), true)
	normalizedTLBBest(t, panel(t, "fig13", "fig13b"), false)
}

// TestFig14TLBBestGoodputButPrestoBeatsItOnAFCT pins a partial
// reproduction: varying the number of long flows, TLB keeps the best
// long goodput (Fig. 14b), but Presto's short AFCT is below TLB's
// (Fig. 14a), where the paper has TLB ahead.
func TestFig14TLBBestGoodputButPrestoBeatsItOnAFCT(t *testing.T) {
	t.Parallel()
	normalizedTLBBest(t, panel(t, "fig14", "fig14b"), false)
	f := panel(t, "fig14", "fig14a")
	for _, x := range xs(t, f) {
		if got := schemesBelow(at(f, x), "tlb"); !slices.Equal(got, []string{"presto"}) {
			t.Errorf("fig14a at %v longs: schemes with a lower AFCT than TLB %v, the golden has [presto]", x, got)
		}
	}
}

// TestFig16And17TLBBestOnBothAxes: under delay asymmetry (Fig. 16) and
// bandwidth asymmetry (Fig. 17), TLB has the lowest short AFCT and the
// highest long goodput at every point.
func TestFig16And17TLBBestOnBothAxes(t *testing.T) {
	t.Parallel()
	for _, entry := range []string{"fig16", "fig17"} {
		normalizedTLBBest(t, panel(t, entry, entry+"a"), true)
		normalizedTLBBest(t, panel(t, entry, entry+"b"), false)
	}
}

// TestAblationAdaptiveEqualsFixed0AndFixedBeatsIt pins a divergence:
// the paper's adaptive q_th is meant to beat every fixed threshold, but
// in the golden it is byte-identical to fixed-0 (long flows switch on
// every packet, as a q_th that stays at 0 would), and fixed-16/64/256 —
// long flows that hold their path, DiffFlow's static split — beat it on
// both short AFCT and long goodput.
func TestAblationAdaptiveEqualsFixed0AndFixedBeatsIt(t *testing.T) {
	t.Parallel()
	afct := bars(panel(t, "ablations", "ablation-fixed-afct"))
	tput := bars(panel(t, "ablations", "ablation-fixed-tput"))
	if afct["adaptive"] != afct["fixed-0"] || tput["adaptive"] != tput["fixed-0"] {
		t.Errorf("adaptive (%v, %v) differs from fixed-0 (%v, %v)", afct["adaptive"], tput["adaptive"], afct["fixed-0"], tput["fixed-0"])
	}
	for _, fixed := range []string{"fixed-16", "fixed-64", "fixed-256"} {
		if !(afct[fixed] < afct["adaptive"] && tput[fixed] > tput["adaptive"]) {
			t.Errorf("%s (%v, %v) does not beat adaptive (%v, %v) on both axes", fixed, afct[fixed], tput[fixed], afct["adaptive"], tput["adaptive"])
		}
	}
}

// TestAblationGuardedEqualsNoGuard pins what the golden shows of the
// reorder-safe guard on a symmetric fabric: nothing. Guarded and
// unguarded TLB are identical on both panels; the hysteresis is what
// moves the numbers.
func TestAblationGuardedEqualsNoGuard(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"ablation-safeswitch-afct", "ablation-safeswitch-tput"} {
		m := bars(panel(t, "ablations", id))
		if m["guarded"] != m["no-guard"] {
			t.Errorf("%s: guarded %v differs from no-guard %v", id, m["guarded"], m["no-guard"])
		}
		if m["guarded"] == m["no-hysteresis"] {
			t.Errorf("%s: guarded equals no-hysteresis (%v)", id, m["guarded"])
		}
	}
}

// TestExtendedDRILLBeatsTLBOnSymmetricAFCT pins what the golden shows of
// the wider field on the symmetric web-search fabric: DRILL's
// per-packet choice of two has the lowest short AFCT, TLB the second.
func TestExtendedDRILLBeatsTLBOnSymmetricAFCT(t *testing.T) {
	t.Parallel()
	f := panel(t, "extended", "extendeda")
	x := xs(t, f)
	afct := at(f, x[len(x)-1])
	wantBest(t, "extendeda AFCT", afct, "drill", true)
	if got := schemesBelow(afct, "tlb"); !slices.Equal(got, []string{"drill"}) {
		t.Errorf("extendeda: schemes with a lower AFCT than TLB %v, the golden has [drill]", got)
	}
}

// TestExtendedAsymTLBBestAFCTButCONGABetterGoodput pins a partial win
// against the wider field on the bandwidth-asymmetric testbed: TLB has
// the lowest short AFCT of the eight schemes, but CONGA-local's long
// flows get more goodput.
func TestExtendedAsymTLBBestAFCTButCONGABetterGoodput(t *testing.T) {
	t.Parallel()
	wantBest(t, "extended-asym AFCT", bars(panel(t, "extended-asym", "extended-asym-afct")), "tlb", true)
	wantBest(t, "extended-asym goodput", bars(panel(t, "extended-asym", "extended-asym-tput")), "conga", false)
}

// TestFatTreeECMPHasBestAFCT pins a divergence beyond the paper: on the
// k=4 fat-tree with two chained decisions per packet, ECMP, not TLB,
// has the lowest short AFCT.
func TestFatTreeECMPHasBestAFCT(t *testing.T) {
	t.Parallel()
	wantBest(t, "fattree AFCT", bars(panel(t, "fattree", "fattree-afct")), "ecmp", true)
}

// TestFigF2TLBBestShortAFCTButNotBestGoodput: on a flapping uplink
// TLB's short flows finish first at every flap period, but LetFlow's
// long flows get more goodput than TLB's at every period.
func TestFigF2TLBBestShortAFCTButNotBestGoodput(t *testing.T) {
	t.Parallel()
	normalizedTLBBest(t, panel(t, "figF2", "figF2a"), true)
	f := panel(t, "figF2", "figF2b")
	for _, x := range xs(t, f) {
		if m := at(f, x); !(m["letflow"] > m["tlb"]) {
			t.Errorf("figF2b at period %v: LetFlow %v not above TLB %v", x, m["letflow"], m["tlb"])
		}
	}
}
