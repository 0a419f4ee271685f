// Fattree: the same load-balancing schemes on a 3-tier k=4 fat-tree
// (Al-Fares et al.), where every packet crosses TWO balancing decisions
// — the edge switch picks the aggregation switch and the aggregation
// switch picks the core. The paper evaluates on a 2-tier leaf-spine;
// this example shows the library generalizes to the multi-rooted trees
// its introduction motivates.
//
// Run with:
//
//	go run ./examples/fattree
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
		K:          4, // 16 hosts, 4 pods, 4 cores, (k/2)^2 = 4 inter-pod paths
		HostLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:      netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
	}

	// Inter-pod traffic: elephants from pod 0 to pod 1, mice from every
	// pod to every other.
	flows := []workload.Flow{}
	for i := 0; i < 2; i++ {
		flows = append(flows, workload.Flow{Src: i, Dst: 4 + i, Size: 5 * units.MB, Start: 0})
	}
	rng := eventsim.NewRNG(5)
	for i := 0; i < 48; i++ {
		src := rng.Intn(16)
		dst := rng.Intn(16)
		for dst/4 == src/4 { // force inter-pod
			dst = rng.Intn(16)
		}
		flows = append(flows, workload.Flow{
			Src: src, Dst: dst,
			Size:     units.Bytes(10000 + rng.Intn(90000)),
			Start:    units.Time(i) * 100 * units.Microsecond,
			Deadline: units.Time(i)*100*units.Microsecond + 25*units.Millisecond,
		})
	}

	schemes := []struct {
		name    string
		factory lb.Factory
	}{
		{"ecmp", lb.ECMP()},
		{"letflow", lb.LetFlow(150 * units.Microsecond)},
		{"drill", lb.DRILL(2, 1)},
		{"tlb", core.Factory(core.EnvConfig(spec.Env(topo)))},
	}

	fmt.Printf("%-8s %12s %12s %14s\n", "scheme", "short AFCT", "short p99", "long goodput")
	for _, s := range schemes {
		res, err := sim.Run(sim.Scenario{
			Name:         "fattree-" + s.name,
			Topology:     topo,
			Transport:    transport.DefaultConfig(),
			Balancer:     s.factory,
			SchemeName:   s.name,
			Seed:         9,
			Flows:        flows,
			StopWhenDone: true,
			MaxTime:      30 * units.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %12v %12v %11.3f Gbps\n",
			s.name,
			res.AFCT(sim.ShortFlows),
			res.FCTPercentile(sim.ShortFlows, 99),
			float64(res.Goodput(sim.LongFlows))/1e9)
	}
}
