package experiments

import (
	"tlb/internal/spec"
	"tlb/internal/units"
)

// AblationTransport re-runs the load-0.7 web-search comparison under
// four transport variants: the paper's DCTCP, plain TCP NewReno
// (drop-tail, no ECN), DCTCP+SACK and DCTCP+delayed ACKs. It answers
// two questions the paper leaves open: how much of each scheme's
// standing depends on DCTCP keeping queues shallow, and whether
// SACK (which forgives reordering) erodes TLB's advantage over
// packet-spraying schemes.
func AblationTransport(o Options) ([]Figure, error) {
	afct, tput := afctTputPanels("ablation-transport", "Transport variants", "variant")
	afct.YLabel = "AFCT (s): bars labeled scheme/variant"

	on, off := true, false
	variants := []struct {
		name      string
		transport *spec.Transport
		dropTail  bool // no ECN marking at the switches
	}{
		{name: "dctcp"},
		{name: "newreno", transport: &spec.Transport{DCTCP: &off}, dropTail: true},
		{name: "dctcp+sack", transport: &spec.Transport{SACK: &on}},
		{name: "dctcp+delack", transport: &spec.Transport{DelayedAck: &on}},
	}
	schemes := []Scheme{
		{Name: "ecmp"},
		{Name: "rps"},
		{Name: "letflow", Params: spec.Params{"gap": pDur(150 * units.Microsecond)}},
		largeTLB(nil),
	}

	var labels []string
	var specs []spec.Spec
	for _, v := range variants {
		e := largeEnv(websearchSizes(), o.FlowsPerRun, ablationLoad)
		e.transport = v.transport
		if v.dropTail {
			e.topo.Queue.ECNThreshold = 0
		}
		for _, s := range schemes {
			s.Label = s.Name + "-" + v.name
			labels = append(labels, s.Name+"/"+v.name)
			specs = append(specs, e.spec(s, loadName(s, ablationLoad), o.Seed))
		}
	}
	return o.afctTputBars("ablation-transport", afct, tput, labels, specs)
}

// FatTreeComparison runs the headline schemes on a k=4 fat-tree with
// inter-pod traffic — the multi-rooted-tree generalization the paper's
// introduction motivates but its evaluation (leaf-spine only) never
// exercises. Two chained balancing decisions per packet (edge and
// aggregation tiers).
func FatTreeComparison(o Options) ([]Figure, error) {
	afct, tput := afctTputPanels("fattree", "k=4 fat-tree, inter-pod mix", "")

	n := o.FlowsPerRun / 2
	if n < 60 {
		n = 60
	}
	// An inter-pod web-search-style workload: uniform random arrival
	// gaps, cross-pod host pairs, deadlines on the mice.
	e := fatTreeEnv(4, n, websearchSizes(), 200*units.Microsecond, 60*units.Second)
	schemes := append(baselines(150*units.Microsecond), largeTLB(nil))
	labels := make([]string, len(schemes))
	specs := make([]spec.Spec, len(schemes))
	for i, s := range schemes {
		labels[i], specs[i] = s.label(), e.spec(s, "fattree-"+s.label(), o.Seed)
	}
	return o.afctTputBars("fattree", afct, tput, labels, specs)
}
