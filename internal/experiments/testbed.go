package experiments

import (
	"fmt"

	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/units"
)

// testbedEnv mirrors the paper's §7 Mininet/P4 testbed: 10 equal-cost
// paths of 20 Mbps with 1 ms per-link delay, 256-packet buffers,
// 100 short (<100 KB) + 4 long (5 MB) flows, deadlines U[2s,6s] with
// D = 3 s, and both the flowlet timeout and the TLB update interval at
// 15 ms.
type testbedEnv struct {
	topo   topology.Config
	shorts int
	longs  int
}

func newTestbedEnv(shorts, longs int) testbedEnv {
	return testbedEnv{
		topo: topology.Config{
			Leaves:       2,
			Spines:       10,
			HostsPerLeaf: 10,
			HostLink:     netem.LinkConfig{Bandwidth: 20 * units.Mbps, Delay: units.Millisecond},
			FabricLink:   netem.LinkConfig{Bandwidth: 20 * units.Mbps, Delay: units.Millisecond},
			Queue:        netem.QueueConfig{Capacity: 256, ECNThreshold: 20},
		},
		shorts: shorts,
		longs:  longs,
	}
}

// testbedTransport raises the RTO floor (and with it the timeout before
// the first RTT sample): RTT here is ~8 ms, so the datacenter 10 ms
// floor would fire spuriously. Use a floor a few RTTs out, like
// Mininet's Linux stack would converge to.
func testbedTransport() *spec.Transport {
	rto := spec.Duration("50ms")
	return &spec.Transport{MinRTO: &rto}
}

const testbedFlowletGap = 15 * units.Millisecond

// testbedTLB is TLB on the slow fabric: t = 15 ms, D = 3 s and
// X = 55KB, the mean of the testbed's U[10KB, 100KB] shorts.
func testbedTLB() Scheme {
	return Scheme{Name: "tlb", Params: spec.Params{
		"interval":      "15ms",
		"deadline":      "3s",
		"meanShortSize": "55KB",
	}}
}

// testbedShortSizes and testbedDeadlines are the §7 short-flow
// population: U[10KB, 100KB] with deadlines U[2s, 6s].
func testbedShortSizes() *spec.SizeDist {
	return &spec.SizeDist{Kind: "uniform", Min: "10KB", Max: "100KB"}
}

func testbedDeadlines() *spec.Deadlines {
	return &spec.Deadlines{Min: "2s", Max: "6s", OnlyBelow: "100KB"}
}

// workloadSpec is the testbed's static mix: senders on leaf 0,
// receivers on leaf 1 (the spec compiler's default pairing), shorts
// arriving over a 500 ms window against the established longs.
func (e testbedEnv) workloadSpec() spec.Workload {
	return spec.Workload{
		Kind: "mix",
		Groups: []spec.MixGroup{{
			Shorts:        e.shorts,
			Longs:         e.longs,
			ShortSizes:    testbedShortSizes(),
			LongSizes:     &spec.SizeDist{Kind: "fixed", Size: "5MB"},
			ArrivalJitter: spec.Dur(500 * units.Millisecond),
		}},
		Deadlines: testbedDeadlines(),
	}
}

// spec builds one scheme's scenario description in this environment.
func (e testbedEnv) spec(s Scheme, name string, seed uint64, maxTime units.Time) spec.Spec {
	return spec.Spec{
		Version:     spec.Version,
		Name:        name,
		Seed:        seed,
		Scheme:      s.schemeSpec(),
		Topology:    topoSpec(e.topo),
		Transport:   testbedTransport(),
		Workload:    e.workloadSpec(),
		Replication: s.Replication,
		Run: spec.Run{
			MaxTime:      spec.Dur(maxTime),
			StopWhenDone: true,
		},
	}
}

// testbedSchemes returns the five §7 schemes configured for the slow
// fabric.
func testbedSchemes() []Scheme {
	return append(baselines(testbedFlowletGap), testbedTLB())
}

// normalizedPanels builds the two §7 panels: AFCT of short flows and
// mean long-flow throughput, each normalized to TLB's result at the
// same x (the paper's presentation).
type normalizedPanels struct {
	afct, tput Figure
}

func newNormalizedPanels(prefix, xlabel string) *normalizedPanels {
	return &normalizedPanels{
		afct: Figure{ID: prefix + "a", Title: "Normalized AFCT of short flows",
			XLabel: xlabel, YLabel: "AFCT / TLB's AFCT"},
		tput: Figure{ID: prefix + "b", Title: "Normalized throughput of long flows",
			XLabel: xlabel, YLabel: "goodput / TLB's goodput"},
	}
}

// addColumn appends one x-column. order fixes the series order (map
// iteration would randomize it run to run).
func (p *normalizedPanels) addColumn(x float64, order []string, results map[string]*sim.Result) {
	ref := results["tlb"]
	refAFCT := ref.AFCT(sim.ShortFlows).Seconds()
	refTput := float64(ref.Goodput(sim.LongFlows))
	add := func(f *Figure, name string, y float64) {
		for i := range f.Series {
			if f.Series[i].Name == name {
				f.Series[i].Add(x, y)
				return
			}
		}
		s := stats.Series{Name: name}
		s.Add(x, y)
		f.Series = append(f.Series, s)
	}
	for _, name := range order {
		res := results[name]
		if res == nil {
			continue
		}
		if refAFCT > 0 {
			add(&p.afct, name, res.AFCT(sim.ShortFlows).Seconds()/refAFCT)
		}
		if refTput > 0 {
			add(&p.tput, name, float64(res.Goodput(sim.LongFlows))/refTput)
		}
	}
}

// testbedSweep runs all schemes over a list of environment variants:
// the whole (x x scheme) grid goes to the shared runner as one spec
// batch, and the normalized columns are reduced in input order.
func testbedSweep(o Options, prefix, xlabel string, xs []float64, mk func(x float64) testbedEnv, mut func(x float64, env *testbedEnv, sp *spec.Spec)) ([]Figure, error) {
	panels := newNormalizedPanels(prefix, xlabel)
	type cell struct {
		x      float64
		scheme string
	}
	var cells []cell
	var specs []spec.Spec
	for _, x := range xs {
		env := mk(x)
		for _, s := range testbedSchemes() {
			sp := env.spec(s, fmt.Sprintf("%s-%s-%v", prefix, s.label(), x), o.Seed, 120*units.Second)
			if mut != nil {
				mut(x, &env, &sp)
			}
			cells = append(cells, cell{x, s.label()})
			specs = append(specs, sp)
		}
	}
	results, err := o.runSpecs(prefix, specs)
	if err != nil {
		return nil, err
	}
	// Flush one normalized column per x value, in input order.
	column := map[string]*sim.Result{}
	var order []string
	for i, res := range results {
		if len(order) > 0 && cells[i].x != cells[i-1].x {
			panels.addColumn(cells[i-1].x, order, column)
			column, order = map[string]*sim.Result{}, nil
		}
		column[cells[i].scheme] = res
		order = append(order, cells[i].scheme)
	}
	if len(order) > 0 {
		panels.addColumn(cells[len(cells)-1].x, order, column)
	}
	return []Figure{panels.afct, panels.tput}, nil
}

// Fig13 reproduces §7's Fig. 13: testbed performance as the number of
// short flows grows (normalized to TLB).
func Fig13(o Options) ([]Figure, error) {
	xs := trim(o, []float64{50, 100, 150, 200})
	return testbedSweep(o, "fig13", "number of short flows", xs,
		func(x float64) testbedEnv { return newTestbedEnv(int(x), 4) }, nil)
}

// Fig14 reproduces Fig. 14: varying the number of long flows.
func Fig14(o Options) ([]Figure, error) {
	xs := trim(o, []float64{2, 4, 6, 8})
	return testbedSweep(o, "fig14", "number of long flows", xs,
		func(x float64) testbedEnv { return newTestbedEnv(100, int(x)) }, nil)
}

// Fig16 reproduces Fig. 16: topology asymmetry by adding propagation
// delay to two leaf-to-spine links.
func Fig16(o Options) ([]Figure, error) {
	xs := trim(o, []float64{0, 1, 2, 4}) // extra one-way delay, ms
	return testbedSweep(o, "fig16", "extra delay on 2 links (ms)", xs,
		func(x float64) testbedEnv {
			env := newTestbedEnv(100, 4)
			slow := env.topo.FabricLink
			slow.Delay += units.Time(x) * units.Millisecond
			env.topo.Overrides = []topology.LinkOverride{
				{Leaf: 0, Spine: 2, Link: slow},
				{Leaf: 0, Spine: 7, Link: slow},
			}
			return env
		}, nil)
}

// Fig17 reproduces Fig. 17: asymmetry by de-rating the bandwidth of
// two leaf-to-spine links.
func Fig17(o Options) ([]Figure, error) {
	xs := trim(o, []float64{20, 15, 10, 5}) // Mbps on the slow links
	return testbedSweep(o, "fig17", "bandwidth of 2 links (Mbps)", xs,
		func(x float64) testbedEnv {
			env := newTestbedEnv(100, 4)
			slow := env.topo.FabricLink
			slow.Bandwidth = units.Bandwidth(x) * units.Mbps
			env.topo.Overrides = []topology.LinkOverride{
				{Leaf: 0, Spine: 2, Link: slow},
				{Leaf: 0, Spine: 7, Link: slow},
			}
			return env
		}, nil)
}
