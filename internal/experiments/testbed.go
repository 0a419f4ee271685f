package experiments

import (
	"fmt"

	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/topology"
	"tlb/internal/units"
)

// testbedEnv mirrors the paper's §7 Mininet/P4 testbed: 10 equal-cost
// paths of 20 Mbps with 1 ms per-link delay, 256-packet buffers, a
// static mix of short (<100 KB) and long (5 MB) flows — senders on
// leaf 0, receivers on leaf 1, shorts arriving over a 500 ms window
// against the established longs — with deadlines U[2s,6s].
//
// The transport raises the RTO floor (and with it the timeout before
// the first RTT sample): RTT here is ~8 ms, so the datacenter 10 ms
// floor would fire spuriously. It uses a floor a few RTTs out, like
// Mininet's Linux stack would converge to.
func testbedEnv(shorts, longs int) env {
	link := netem.LinkConfig{Bandwidth: 20 * units.Mbps, Delay: units.Millisecond}
	rto := spec.Duration("50ms")
	return env{
		topo: topology.Config{
			Leaves:       2,
			Spines:       10,
			HostsPerLeaf: 10,
			HostLink:     link,
			FabricLink:   link,
			Queue:        netem.QueueConfig{Capacity: 256, ECNThreshold: 20},
		},
		transport: &spec.Transport{MinRTO: &rto},
		workload: spec.Workload{
			Kind: "mix",
			Groups: []spec.MixGroup{{
				Shorts:        shorts,
				Longs:         longs,
				ShortSizes:    testbedShortSizes(),
				LongSizes:     &spec.SizeDist{Kind: "fixed", Size: "5MB"},
				ArrivalJitter: spec.Dur(500 * units.Millisecond),
			}},
			Deadlines: testbedDeadlines(),
		},
		maxTime: 120 * units.Second,
	}
}

// asymTestbed is the testbed with its two asymmetry links — (leaf 0,
// spine 2) and (leaf 0, spine 7), Fig. 16/17 — changed by slow.
func asymTestbed(slow func(*netem.LinkConfig)) env {
	e := testbedEnv(100, 4)
	l := e.topo.FabricLink
	slow(&l)
	e.topo.Overrides = []topology.LinkOverride{{Leaf: 0, Spine: 2, Link: l}, {Leaf: 0, Spine: 7, Link: l}}
	return e
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

// testbedSchemes returns the five §7 schemes configured for the slow
// fabric, TLB last.
func testbedSchemes() []Scheme {
	return append(baselines(testbedFlowletGap), testbedTLB())
}

// testbedSweep runs all schemes over a list of environment variants,
// faults (when non-nil) adding each x's fault schedule: the whole
// (x × scheme) grid goes to the shared runner as one spec batch, and
// the two §7 panels — short-flow AFCT and long-flow goodput, each
// normalized to TLB's result at the same x — are reduced in input
// order.
func testbedSweep(o Options, prefix, xlabel string, xs []float64, mk func(x float64) env, faults func(x float64) []spec.Fault) ([]Figure, error) {
	schemes := testbedSchemes()
	var specs []spec.Spec
	for _, x := range xs {
		e := mk(x)
		for _, s := range schemes {
			sp := e.spec(s, fmt.Sprintf("%s-%s-%v", prefix, s.label(), x), o.Seed)
			if faults != nil {
				sp.Faults = faults(x)
			}
			specs = append(specs, sp)
		}
	}
	results, err := o.runSpecs(prefix, specs)
	if err != nil {
		return nil, err
	}
	afct := Figure{ID: prefix + "a", Title: "Normalized AFCT of short flows",
		XLabel: xlabel, YLabel: "AFCT / TLB's AFCT"}
	tput := Figure{ID: prefix + "b", Title: "Normalized throughput of long flows",
		XLabel: xlabel, YLabel: "goodput / TLB's goodput"}
	n := len(schemes)
	for i, res := range results {
		ref := results[i/n*n+n-1] // TLB at the same x
		name, x := schemes[i%n].label(), xs[i/n]
		if r := ref.AFCT(sim.ShortFlows).Seconds(); r > 0 {
			afct.add(name, x, res.AFCT(sim.ShortFlows).Seconds()/r)
		}
		if r := float64(ref.Goodput(sim.LongFlows)); r > 0 {
			tput.add(name, x, float64(res.Goodput(sim.LongFlows))/r)
		}
	}
	return []Figure{afct, tput}, nil
}

// Fig13 reproduces §7's Fig. 13: testbed performance as the number of
// short flows grows (normalized to TLB).
func Fig13(o Options) ([]Figure, error) {
	xs := trim(o, []float64{50, 100, 150, 200})
	return testbedSweep(o, "fig13", "number of short flows", xs,
		func(x float64) env { return testbedEnv(int(x), 4) }, nil)
}

// Fig14 reproduces Fig. 14: varying the number of long flows.
func Fig14(o Options) ([]Figure, error) {
	xs := trim(o, []float64{2, 4, 6, 8})
	return testbedSweep(o, "fig14", "number of long flows", xs,
		func(x float64) env { return testbedEnv(100, int(x)) }, nil)
}

// Fig16 reproduces Fig. 16: topology asymmetry by adding propagation
// delay to two leaf-to-spine links.
func Fig16(o Options) ([]Figure, error) {
	xs := trim(o, []float64{0, 1, 2, 4}) // extra one-way delay, ms
	return testbedSweep(o, "fig16", "extra delay on 2 links (ms)", xs,
		func(x float64) env {
			return asymTestbed(func(l *netem.LinkConfig) { l.Delay += units.Time(x) * units.Millisecond })
		}, nil)
}

// Fig17 reproduces Fig. 17: asymmetry by de-rating the bandwidth of
// two leaf-to-spine links.
func Fig17(o Options) ([]Figure, error) {
	xs := trim(o, []float64{20, 15, 10, 5}) // Mbps on the slow links
	return testbedSweep(o, "fig17", "bandwidth of 2 links (Mbps)", xs,
		func(x float64) env {
			return asymTestbed(func(l *netem.LinkConfig) { l.Bandwidth = units.Bandwidth(x) * units.Mbps })
		}, nil)
}
