// Asymmetric: the paper's §7 asymmetry study (Fig. 16/17 shape) on a
// slow testbed-style fabric. Two of the ten leaf-to-spine paths are
// degraded — extra delay in one run, reduced bandwidth in another —
// and the example shows how each scheme copes. Congestion-oblivious
// schemes (RPS, Presto) keep spraying onto the bad paths; TLB and
// LetFlow route around them.
//
// Run with:
//
//	go run ./examples/asymmetric
package main

import (
	"fmt"
	"log"

	"tlb/internal/core"
	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

func baseTopo() topology.Config {
	return topology.Config{
		Leaves:       2,
		Spines:       10,
		HostsPerLeaf: 10,
		HostLink:     netem.LinkConfig{Bandwidth: 20 * units.Mbps, Delay: units.Millisecond},
		FabricLink:   netem.LinkConfig{Bandwidth: 20 * units.Mbps, Delay: units.Millisecond},
		Queue:        netem.QueueConfig{Capacity: 256, ECNThreshold: 20},
	}
}

func main() {
	variants := []struct {
		name string
		mut  func(*topology.Config)
	}{
		{"symmetric", nil},
		{"2 links +4ms delay", func(t *topology.Config) {
			slow := t.FabricLink
			slow.Delay += 4 * units.Millisecond
			t.Overrides = []topology.LinkOverride{
				{Leaf: 0, Spine: 2, Link: slow},
				{Leaf: 0, Spine: 7, Link: slow},
			}
		}},
		{"2 links at 5Mbps", func(t *topology.Config) {
			slow := t.FabricLink
			slow.Bandwidth = 5 * units.Mbps
			t.Overrides = []topology.LinkOverride{
				{Leaf: 0, Spine: 2, Link: slow},
				{Leaf: 0, Spine: 7, Link: slow},
			}
		}},
	}

	for _, v := range variants {
		topo := baseTopo()
		if v.mut != nil {
			v.mut(&topo)
		}
		fmt.Printf("--- %s ---\n", v.name)
		runAll(topo)
		fmt.Println()
	}
}

func runAll(topo topology.Config) {
	// Slow fabric: scale transport and TLB timers accordingly (the
	// paper uses a 15 ms update interval and D = 3 s here).
	tcfg := transport.DefaultConfig()
	tcfg.MinRTO = 50 * units.Millisecond
	tcfg.InitialRTO = 50 * units.Millisecond

	tlbCfg := core.EnvConfig(spec.Env(topo))
	tlbCfg.Interval = 15 * units.Millisecond
	tlbCfg.Deadline = 3 * units.Second
	tlbCfg.MeanShortSize = 55 * units.KB

	mix := workload.StaticMix{
		ShortFlows:    100,
		LongFlows:     4,
		ShortSizes:    workload.Uniform{MinSize: 10 * units.KB, MaxSize: 100 * units.KB},
		LongSizes:     workload.Fixed{Size: 5 * units.MB},
		Senders:       []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		Receivers:     []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
		ArrivalJitter: 500 * units.Millisecond,
		Deadlines: workload.DeadlineDist{
			Min: 2 * units.Second, Max: 6 * units.Second,
			OnlyBelow: 100 * units.KB,
		},
	}
	flows, err := mix.Generate(eventsim.NewRNG(3), 0)
	if err != nil {
		log.Fatal(err)
	}

	schemes := []struct {
		name    string
		factory lb.Factory
	}{
		{"ecmp", lb.ECMP()},
		{"rps", lb.RPS()},
		{"presto", lb.Presto(0)},
		{"letflow", lb.LetFlow(15 * units.Millisecond)},
		{"tlb", core.Factory(tlbCfg)},
	}
	fmt.Printf("%-8s %12s %12s %14s %8s\n", "scheme", "short AFCT", "short p99", "long goodput", "rtx")
	for _, s := range schemes {
		res, err := sim.Run(sim.Scenario{
			Name:         "asym-" + s.name,
			Topology:     topo,
			Transport:    tcfg,
			Balancer:     s.factory,
			SchemeName:   s.name,
			Seed:         5,
			Flows:        flows,
			StopWhenDone: true,
			MaxTime:      300 * units.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %12v %12v %9.2f Mbps %8d\n",
			s.name,
			res.AFCT(sim.ShortFlows),
			res.FCTPercentile(sim.ShortFlows, 99),
			float64(res.Goodput(sim.LongFlows))/1e6,
			res.TotalRetransmits(sim.AllFlows))
	}
}
