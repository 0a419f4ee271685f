// Websearch: a scaled-down version of the paper's §6.2 large-scale
// evaluation. Poisson flow arrivals sized from the DCTCP web-search
// distribution hit a 4-leaf/8-spine fabric at increasing load, and the
// example prints the short-flow AFCT and long-flow goodput of every
// scheme at every load — the shape of the paper's Fig. 10.
//
// Run with:
//
//	go run ./examples/websearch
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

	tlbCfg := core.EnvConfig(spec.Env(topo))
	tlbCfg.MeanShortSize = 30 * units.KB

	schemes := []struct {
		name    string
		factory lb.Factory
	}{
		{"ecmp", lb.ECMP()},
		{"rps", lb.RPS()},
		{"presto", lb.Presto(0)},
		{"letflow", lb.LetFlow(150 * units.Microsecond)},
		{"tlb", core.Factory(tlbCfg)},
	}

	const flowCount = 300
	fmt.Printf("%-8s", "load")
	for _, s := range schemes {
		fmt.Printf("  %14s", s.name)
	}
	fmt.Println("      (short AFCT ms | long goodput Gbps)")

	for _, load := range []float64{0.3, 0.5, 0.8} {
		// Load is relative to the aggregate leaf-uplink capacity;
		// every flow crosses the fabric.
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
		flows, err := pc.Generate(eventsim.NewRNG(uint64(load*100)), flowCount, 0)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-8.1f", load)
		for _, s := range schemes {
			res, err := sim.Run(sim.Scenario{
				Name:         fmt.Sprintf("websearch-%s-%.1f", s.name, load),
				Topology:     topo,
				Transport:    transport.DefaultConfig(),
				Balancer:     s.factory,
				SchemeName:   s.name,
				Seed:         9,
				Flows:        flows,
				StopWhenDone: true,
				MaxTime:      60 * units.Second,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %6.2f | %5.2f", res.AFCT(sim.ShortFlows).Millis(),
				float64(res.Goodput(sim.LongFlows))/1e9)
		}
		fmt.Println()
	}
}
