package experiments

import (
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/units"
)

// loadGrid is the paper's workload sweep.
var loadGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// fourPanels aggregates one large-scale run into the paper's four
// standard panels.
type fourPanels struct {
	afct, tail, miss, tput Figure
}

func newFourPanels(prefix, workloadName string) *fourPanels {
	return &fourPanels{
		afct: Figure{ID: prefix + "a", Title: "AFCT of short flows (" + workloadName + ")",
			XLabel: "load", YLabel: "AFCT (s)"},
		tail: Figure{ID: prefix + "b", Title: "99th percentile FCT of short flows (" + workloadName + ")",
			XLabel: "load", YLabel: "FCT (s)"},
		miss: Figure{ID: prefix + "c", Title: "Missed deadlines of short flows (" + workloadName + ")",
			XLabel: "load", YLabel: "miss fraction"},
		tput: Figure{ID: prefix + "d", Title: "Throughput of long flows (" + workloadName + ")",
			XLabel: "load", YLabel: "per-flow goodput (Gbps)"},
	}
}

func (p *fourPanels) addPoint(series string, load float64, res *sim.Result) {
	add := func(f *Figure, y float64) {
		for i := range f.Series {
			if f.Series[i].Name == series {
				f.Series[i].Add(load, y)
				return
			}
		}
		s := stats.Series{Name: series}
		s.Add(load, y)
		f.Series = append(f.Series, s)
	}
	add(&p.afct, res.AFCT(sim.ShortFlows).Seconds())
	add(&p.tail, res.FCTPercentile(sim.ShortFlows, 99).Seconds())
	add(&p.miss, res.DeadlineMissRatio(sim.ShortFlows))
	add(&p.tput, float64(res.Goodput(sim.LongFlows))/1e9)
}

func (p *fourPanels) figures() []Figure {
	return []Figure{p.afct, p.tail, p.miss, p.tput}
}

// largeSweep runs the scheme set over the load grid in the given
// environment: the whole (load x scheme) grid is built as one spec
// batch, submitted to the shared runner, and reduced in input order —
// so the resulting figures are identical at any worker count.
func largeSweep(o Options, env largeEnv, schemes []Scheme, prefix, workloadName string) ([]Figure, error) {
	panels := newFourPanels(prefix, workloadName)
	loads := trim(o, loadGrid)
	type point struct {
		scheme string
		load   float64
	}
	pts := make([]point, 0, len(loads)*len(schemes))
	specs := make([]spec.Spec, 0, len(loads)*len(schemes))
	for _, load := range loads {
		for _, s := range schemes {
			pts = append(pts, point{s.label(), load})
			specs = append(specs, env.spec(s, load, o.Seed))
		}
	}
	results, err := o.runSpecs(prefix, specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		panels.addPoint(pts[i].scheme, pts[i].load, res)
	}
	return panels.figures(), nil
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
	env := newLargeEnv(websearchSizes(), o.FlowsPerRun)
	schemes := append(baselines(150*units.Microsecond), largeTLB(nil))
	return largeSweep(o, env, schemes, "fig10", "web search")
}

// Fig11 reproduces the data-mining sweep (§6.2). The VL2 elephant tail
// is truncated at 50 MB (paper: <5% of flows exceed 35 MB) to bound
// single-run time; the mice/elephant boundary the paper discusses is
// preserved.
func Fig11(o Options) ([]Figure, error) {
	env := newLargeEnv(dataminingSizes(), o.FlowsPerRun*2/3)
	schemes := append(baselines(150*units.Microsecond), largeTLB(nil))
	return largeSweep(o, env, schemes, "fig11", "data mining")
}

// Fig12 reproduces the deadline-agnostic study (§6.3): TLB configured
// with the 5th/25th/50th/75th percentile of the (unknown to the
// switch) U[5ms,25ms] deadline distribution, under the web-search
// workload.
func Fig12(o Options) ([]Figure, error) {
	env := newLargeEnv(websearchSizes(), o.FlowsPerRun)
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
	return largeSweep(o, env, schemes, "fig12", "web search, deadline-agnostic")
}
