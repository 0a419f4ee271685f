package experiments

import (
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/topology"
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
	afct := Figure{ID: "ablation-transport-afct", Title: "Transport variants (short AFCT)",
		XLabel: "variant", YLabel: "AFCT (s): bars labeled scheme/variant"}
	tput := Figure{ID: "ablation-transport-tput", Title: "Transport variants (long goodput)",
		XLabel: "variant", YLabel: "Gbps"}

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
		env := newLargeEnv(websearchSizes(), o.FlowsPerRun)
		if v.dropTail {
			env.topo.Queue.ECNThreshold = 0
		}
		for _, s := range schemes {
			labels = append(labels, s.Name+"/"+v.name)
			sp := env.spec(Scheme{
				Name:        s.Name,
				Label:       s.Name + "-" + v.name,
				Params:      s.Params,
				Replication: s.Replication,
			}, ablationLoad, o.Seed)
			sp.Transport = v.transport
			specs = append(specs, sp)
		}
	}
	results, err := o.runSpecs("ablation-transport", specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		afct.Bars = append(afct.Bars, Bar{labels[i], res.AFCT(sim.ShortFlows).Seconds()})
		tput.Bars = append(tput.Bars, Bar{labels[i], float64(res.Goodput(sim.LongFlows)) / 1e9})
	}
	return []Figure{afct, tput}, nil
}

// FatTreeComparison runs the headline schemes on a k=4 fat-tree with
// inter-pod traffic — the multi-rooted-tree generalization the paper's
// introduction motivates but its evaluation (leaf-spine only) never
// exercises. Two chained balancing decisions per packet (edge and
// aggregation tiers).
func FatTreeComparison(o Options) ([]Figure, error) {
	afct := Figure{ID: "fattree-afct", Title: "k=4 fat-tree, inter-pod mix (short AFCT)",
		YLabel: "AFCT (s)"}
	tput := Figure{ID: "fattree-tput", Title: "k=4 fat-tree, inter-pod mix (long goodput)",
		YLabel: "Gbps"}

	ftCfg := topology.Config{
		K:          4,
		HostLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:      netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
	}
	n := o.FlowsPerRun / 2
	if n < 60 {
		n = 60
	}
	// An inter-pod web-search-style workload: uniform random arrival
	// gaps, cross-pod host pairs, deadlines on the mice.
	wl := spec.Workload{
		Kind: "interpod",
		InterPod: &spec.InterPod{
			Flows:             n,
			Sizes:             websearchSizes(),
			MaxGap:            spec.Dur(200 * units.Microsecond),
			DeadlineBase:      spec.Dur(5 * units.Millisecond),
			DeadlineJitter:    spec.Dur(20 * units.Millisecond),
			DeadlineOnlyBelow: spec.Sz(100 * units.KB),
		},
	}

	schemes := append(baselines(150*units.Microsecond), largeTLB(nil))
	specs := make([]spec.Spec, len(schemes))
	for i, s := range schemes {
		specs[i] = spec.Spec{
			Version:  spec.Version,
			Name:     "fattree-" + s.label(),
			Seed:     o.Seed,
			Scheme:   s.schemeSpec(),
			Topology: topoSpec(ftCfg),
			Workload: wl,
			Run: spec.Run{
				MaxTime:      spec.Dur(60 * units.Second),
				StopWhenDone: true,
			},
		}
	}
	results, err := o.runSpecs("fattree", specs)
	if err != nil {
		return nil, err
	}
	for i, s := range schemes {
		res := results[i]
		afct.Bars = append(afct.Bars, Bar{s.label(), res.AFCT(sim.ShortFlows).Seconds()})
		tput.Bars = append(tput.Bars, Bar{s.label(), float64(res.Goodput(sim.LongFlows)) / 1e9})
	}
	return []Figure{afct, tput}, nil
}
