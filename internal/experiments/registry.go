package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Entry describes one runnable experiment.
type Entry struct {
	// Name is the CLI identifier ("fig10", "ablation-interval").
	Name string
	// Paper locates the result in the paper ("Fig. 10 a-d, §6.2").
	Paper string
	// Description summarizes what is reproduced.
	Description string
	// Run produces the figure panels.
	Run func(Options) ([]Figure, error)
}

// Registry lists every reproducible figure and ablation in paper
// order.
func Registry() []Entry {
	return []Entry{
		{"fig3-4", "Figs. 3-4, §2.2", "impact of switching granularity on short and long flows", Fig3And4},
		{"fig7", "Fig. 7 a-d, §4.2", "model vs simulated minimum switching threshold q_th", Fig7},
		{"fig8-9", "Figs. 8-9, §6.1", "short- and long-flow reordering, queueing delay and throughput over time", Fig8And9},
		{"fig10", "Fig. 10 a-d, §6.2", "web-search workload sweep (loads 0.1-0.8, 5 schemes)", Fig10},
		{"fig11", "Fig. 11 a-d, §6.2", "data-mining workload sweep", Fig11},
		{"fig12", "Fig. 12 a-d, §6.3", "deadline-agnostic TLB percentile study", Fig12},
		{"fig13", "Fig. 13 a-b, §7", "testbed: varying the number of short flows", Fig13},
		{"fig14", "Fig. 14 a-b, §7", "testbed: varying the number of long flows", Fig14},
		{"fig15", "Fig. 15 a-b, §7", "per-packet decision cost and scheme state (overhead)", Fig15},
		{"fig16", "Fig. 16 a-b, §7", "asymmetric topology: extra delay on two links", Fig16},
		{"fig17", "Fig. 17 a-b, §7", "asymmetric topology: de-rated bandwidth on two links", Fig17},
		{"extended", "beyond the paper", "TLB vs the wider §8 field (DRILL, CONGA-local, Hermes, FlowBender, WCMP)", ExtendedBaselines},
		{"extended-asym", "beyond the paper", "the wider field on the bandwidth-asymmetric testbed", ExtendedAsymmetric},
		{"ablation-interval", "—", "TLB ablation: q_th update interval", AblationInterval},
		{"ablation-threshold", "—", "TLB ablation: short/long classification threshold", AblationThreshold},
		{"ablation-fixed", "—", "TLB ablation: adaptive vs fixed q_th", AblationFixedGranularity},
		{"ablation-shortpolicy", "—", "TLB ablation: short-flow path policy", AblationShortPolicy},
		{"ablation-safeswitch", "—", "TLB ablation: reorder-safe switching guard and hysteresis", AblationSafeSwitch},
		{"ablation-demandcap", "—", "TLB ablation: Eq. 1 demand cap vs paper-literal", AblationDemandCap},
		{"ablation-transport", "—", "transport ablation: DCTCP vs NewReno vs SACK vs delayed ACKs", AblationTransport},
		{"fattree", "beyond the paper", "headline schemes on a k=4 fat-tree (two chained decisions)", FatTreeComparison},
		{"figF1", "beyond the paper", "fault tolerance: two uplinks fail mid-run and recover 3 s later", FigF1},
		{"figF2", "beyond the paper", "fault tolerance: flap-frequency sweep on one uplink", FigF2},
		{"figLS", "beyond the paper", "streaming scale: 1M flows on a k=16 fat-tree in O(1) memory per flow", FigLS},
	}
}

// Lookup resolves a comma-separated list of experiment names ("all"
// selects everything; "ablations" selects the ablation set).
func Lookup(names string) ([]Entry, error) {
	all := Registry()
	if names == "" || names == "all" {
		return all, nil
	}
	byName := map[string]Entry{}
	for _, e := range all {
		byName[e.Name] = e
	}
	var out []Entry
	seen := map[string]bool{}
	for _, raw := range strings.Split(names, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if name == "ablations" {
			for _, e := range all {
				if strings.HasPrefix(e.Name, "ablation-") && !seen[e.Name] {
					out = append(out, e)
					seen[e.Name] = true
				}
			}
			continue
		}
		e, ok := byName[name]
		if !ok {
			var known []string
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown experiment %q (known: %s, plus \"all\" and \"ablations\")",
				name, strings.Join(known, ", "))
		}
		if !seen[name] {
			out = append(out, e)
			seen[name] = true
		}
	}
	return out, nil
}
