// Deadline: the paper's §6.3 deadline-agnostic study (Fig. 12 shape).
// The switch does not know each flow's real deadline (drawn uniformly
// from [5ms, 25ms]); instead TLB is configured with one fixed D — the
// 5th, 25th, 50th or 75th percentile of that distribution — and the
// example shows why the paper picks the 25th percentile: tight enough
// to protect the mice, loose enough to leave capacity for elephants.
//
// Run with:
//
//	go run ./examples/deadline
package main

import (
	"fmt"
	"log"

	"tlb/internal/core"
	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

func main() {
	topo := topology.Config{
		Leaves:       4,
		Spines:       8,
		HostsPerLeaf: 16,
		HostLink:     netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:        netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
	}
	sizes := workload.Truncated{Dist: workload.WebSearch(), Max: 20 * units.MB}

	const load = 0.7
	fabricCap := float64(topo.Leaves) * float64(topo.Spines) * topo.FabricLink.Bandwidth.BytesPerSecond()
	pc := workload.PoissonConfig{
		Hosts:        topo.Hosts(),
		Sizes:        sizes,
		RateOverride: load * fabricCap / sizes.Mean(),
		Deadlines: workload.DeadlineDist{
			Min: 5 * units.Millisecond, Max: 25 * units.Millisecond,
			OnlyBelow: 100 * units.KB,
		},
		CrossLeafOnly: true,
		LeafOf:        func(h int) int { return h / topo.HostsPerLeaf },
	}
	flows, err := pc.Generate(eventsim.NewRNG(11), 300, 0)
	if err != nil {
		log.Fatal(err)
	}

	percentiles := []struct {
		name string
		d    units.Time
	}{
		{"TLB-5th", 5 * units.Millisecond},
		{"TLB-25th", 10 * units.Millisecond},
		{"TLB-50th", 15 * units.Millisecond},
		{"TLB-75th", 20 * units.Millisecond},
	}

	fmt.Printf("%-9s %12s %12s %10s %14s\n",
		"variant", "short AFCT", "short p99", "miss %", "long goodput")
	for _, p := range percentiles {
		cfg := core.EnvConfig(spec.Env(topo))
		cfg.MeanShortSize = 30 * units.KB
		cfg.Deadline = p.d

		res, err := sim.Run(sim.Scenario{
			Name:         "deadline-" + p.name,
			Topology:     topo,
			Transport:    transport.DefaultConfig(),
			Balancer:     core.Factory(cfg),
			SchemeName:   p.name,
			Seed:         2,
			Flows:        flows,
			StopWhenDone: true,
			MaxTime:      60 * units.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %12v %12v %9.1f%% %11.3f Gbps\n",
			p.name,
			res.AFCT(sim.ShortFlows),
			res.FCTPercentile(sim.ShortFlows, 99),
			res.DeadlineMissRatio(sim.ShortFlows)*100,
			float64(res.Goodput(sim.LongFlows))/1e9)
	}
}
