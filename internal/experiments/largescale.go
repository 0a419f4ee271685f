package experiments

import (
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/units"
)

// loadGrid is the paper's workload sweep.
var loadGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// largeSweep runs the scheme set over the load grid in the large
// environment: the whole (load × scheme) grid is built as one spec
// batch, submitted to the shared runner, and reduced in input order
// into the paper's four standard panels — so the resulting figures are
// identical at any worker count.
func largeSweep(o Options, sizes spec.SizeDist, flows int, schemes []Scheme, prefix, workloadName string) ([]Figure, error) {
	loads := trim(o, loadGrid)
	var specs []spec.Spec
	for _, load := range loads {
		e := largeEnv(sizes, flows, load)
		for _, s := range schemes {
			specs = append(specs, e.spec(s, loadName(s, load), o.Seed))
		}
	}
	results, err := o.runSpecs(prefix, specs)
	if err != nil {
		return nil, err
	}
	figs := []Figure{
		{ID: prefix + "a", Title: "AFCT of short flows (" + workloadName + ")",
			XLabel: "load", YLabel: "AFCT (s)"},
		{ID: prefix + "b", Title: "99th percentile FCT of short flows (" + workloadName + ")",
			XLabel: "load", YLabel: "FCT (s)"},
		{ID: prefix + "c", Title: "Missed deadlines of short flows (" + workloadName + ")",
			XLabel: "load", YLabel: "miss fraction"},
		{ID: prefix + "d", Title: "Throughput of long flows (" + workloadName + ")",
			XLabel: "load", YLabel: "per-flow goodput (Gbps)"},
	}
	n := len(schemes)
	for i, res := range results {
		name, load := schemes[i%n].label(), loads[i/n]
		figs[0].add(name, load, res.AFCT(sim.ShortFlows).Seconds())
		figs[1].add(name, load, res.FCTPercentile(sim.ShortFlows, 99).Seconds())
		figs[2].add(name, load, res.DeadlineMissRatio(sim.ShortFlows))
		figs[3].add(name, load, float64(res.Goodput(sim.LongFlows))/1e9)
	}
	return figs, nil
}

// largeTLB is TLB as the web-search and data-mining environments (and
// the fat-tree) configure it: X = 30KB, the mean short (<100KB) size
// of both CDFs. extra states what a figure or ablation varies on top.
func largeTLB(extra spec.Params) Scheme {
	p := spec.Params{"meanShortSize": "30KB"}
	for k, v := range extra {
		p[k] = v
	}
	return Scheme{Name: "tlb", Params: p}
}

// Fig10 reproduces the web-search large-scale sweep (§6.2): AFCT, tail
// FCT and deadline misses of short flows plus long-flow throughput for
// ECMP, RPS, Presto, LetFlow and TLB over loads 0.1–0.8.
func Fig10(o Options) ([]Figure, error) {
	schemes := append(baselines(150*units.Microsecond), largeTLB(nil))
	return largeSweep(o, websearchSizes(), o.FlowsPerRun, schemes, "fig10", "web search")
}

// Fig11 reproduces the data-mining sweep (§6.2). The VL2 elephant tail
// is truncated at 50 MB (paper: <5% of flows exceed 35 MB) to bound
// single-run time; the mice/elephant boundary the paper discusses is
// preserved.
func Fig11(o Options) ([]Figure, error) {
	schemes := append(baselines(150*units.Microsecond), largeTLB(nil))
	return largeSweep(o, dataminingSizes(), o.FlowsPerRun*2/3, schemes, "fig11", "data mining")
}

// Fig12 reproduces the deadline-agnostic study (§6.3): TLB configured
// with the 5th/25th/50th/75th percentile of the (unknown to the
// switch) U[5ms,25ms] deadline distribution, under the web-search
// workload.
func Fig12(o Options) ([]Figure, error) {
	percentiles := []struct {
		name string
		d    units.Time
	}{
		{"tlb-5th", 5 * units.Millisecond},
		{"tlb-25th", 10 * units.Millisecond},
		{"tlb-50th", 15 * units.Millisecond},
		{"tlb-75th", 20 * units.Millisecond},
	}
	schemes := make([]Scheme, 0, len(percentiles))
	for _, p := range percentiles {
		s := largeTLB(spec.Params{"deadline": pDur(p.d)})
		s.Label = p.name
		schemes = append(schemes, s)
	}
	return largeSweep(o, websearchSizes(), o.FlowsPerRun, schemes, "fig12", "web search, deadline-agnostic")
}
