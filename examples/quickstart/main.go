// Quickstart: build a small leaf-spine fabric, run the same mixed
// workload under ECMP and under TLB, and compare what the paper cares
// about — short-flow completion times and long-flow throughput.
//
// Run with:
//
//	go run ./examples/quickstart
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
	// A 2-leaf, 8-spine fabric: 8 equal-cost paths between any pair of
	// hosts on different leaves, 1 Gbps everywhere.
	topo := topology.Config{
		Leaves:       2,
		Spines:       8,
		HostsPerLeaf: 8,
		HostLink:     netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:        netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
	}

	// The paper's §2 scenario: a few elephants hog paths while a burst
	// of latency-sensitive mice tries to get through.
	mix := workload.StaticMix{
		ShortFlows: 60,
		LongFlows:  3,
		ShortSizes: workload.Uniform{MinSize: 10 * units.KB, MaxSize: 100 * units.KB},
		LongSizes:  workload.Fixed{Size: 10 * units.MB},
		Senders:    []int{0, 1, 2, 3, 4, 5, 6, 7},
		Receivers:  []int{8, 9, 10, 11, 12, 13, 14, 15},
		// Mice burst into established elephants over 5 ms.
		ArrivalJitter: 5 * units.Millisecond,
		Deadlines: workload.DeadlineDist{
			Min: 5 * units.Millisecond, Max: 25 * units.Millisecond,
			OnlyBelow: 100 * units.KB,
		},
	}
	flows, err := mix.Generate(eventsim.NewRNG(7), 0)
	if err != nil {
		log.Fatal(err)
	}

	// TLB needs to know the fabric it balances for (link rate, RTT,
	// buffer depth), which the topology derives; everything else is the
	// paper's defaults.
	tlbCfg := core.EnvConfig(spec.Env(topo))

	schemes := []struct {
		name    string
		factory lb.Factory
	}{
		{"ecmp", lb.ECMP()},
		{"tlb", core.Factory(tlbCfg)},
	}

	fmt.Printf("%-6s %12s %12s %10s %14s\n",
		"scheme", "short AFCT", "short p99", "miss %", "long goodput")
	for _, s := range schemes {
		res, err := sim.Run(sim.Scenario{
			Name:         "quickstart-" + s.name,
			Topology:     topo,
			Transport:    transport.DefaultConfig(),
			Balancer:     s.factory,
			SchemeName:   s.name,
			Seed:         1,
			Flows:        flows,
			StopWhenDone: true,
			MaxTime:      10 * units.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %12v %12v %9.1f%% %11.3f Gbps\n",
			s.name,
			res.AFCT(sim.ShortFlows),
			res.FCTPercentile(sim.ShortFlows, 99),
			res.DeadlineMissRatio(sim.ShortFlows)*100,
			float64(res.Goodput(sim.LongFlows))/1e9)
	}
}
