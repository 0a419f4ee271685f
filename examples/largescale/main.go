// Largescale: streaming statistics at scale. The inter-pod workload
// is a source the runner pumps one flow ahead (no up-front []Flow) and,
// with outputs.streamStats set, every completed flow folds into
// fixed-size per-class aggregates instead of being retained, so memory
// is O(concurrent flows), not O(total flows) — Result.Flows stays empty and every accessor answers from
// the aggregates (percentiles via a DDSketch-style quantile sketch
// with a ±1% relative-error bound).
//
// This demo runs a reduced 20k-flow inter-pod workload on a k=8
// fat-tree. The adjacent spec.json is the full-scale artifact — the
// same scenario at k=16 with one million flows:
//
//	go run ./examples/largescale
//	go run ./cmd/tlbsim -spec examples/largescale/spec.json
package main

import (
	"fmt"
	"log"

	"tlb/internal/sim"
	"tlb/internal/spec"

	// The tlb scheme registers itself with the lb registry.
	_ "tlb/internal/core"
)

func main() {
	sp := &spec.Spec{
		Version: spec.Version,
		Name:    "largescale-demo",
		Seed:    42,
		Scheme:  spec.Scheme{Name: "ecmp"},
		Topology: spec.Topology{
			Kind:       "fattree",
			K:          8, // 128 hosts in 8 pods
			HostLink:   spec.Link{Bandwidth: "1Gbps", Delay: "5us"},
			FabricLink: spec.Link{Bandwidth: "1Gbps", Delay: "10us"},
			Queue:      spec.Queue{Capacity: 256, ECNThreshold: 65},
		},
		Workload: spec.Workload{
			Kind: "interpod",
			InterPod: &spec.InterPod{
				Flows:             20000,
				Sizes:             spec.SizeDist{Kind: "uniform", Min: "2KB", Max: "32KB"},
				MaxGap:            "4us", // ~0.5 load against the hosts' 128 Gbps
				DeadlineBase:      "5ms",
				DeadlineJitter:    "20ms",
				DeadlineOnlyBelow: "100KB",
			},
		},
		Outputs: spec.Outputs{StreamStats: true},
		Run:     spec.Run{MaxTime: "60s", StopWhenDone: true},
	}

	sc, err := sp.Compile()
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("flows           %d (%d completed), records retained: %d\n",
		res.Count(sim.AllFlows), res.CompletedCount(sim.AllFlows), len(res.Flows))
	fmt.Printf("sim time        %v\n", res.EndTime)
	fmt.Printf("AFCT            %v\n", res.AFCT(sim.ShortFlows))
	fmt.Printf("p99 FCT         %v (sketch estimate, ±1%%)\n", res.FCTPercentile(sim.ShortFlows, 99))
	fmt.Printf("deadline misses %.2f%%\n", res.DeadlineMissRatio(sim.ShortFlows)*100)
	fmt.Printf("retransmits     %d (timeouts %d)\n",
		res.TotalRetransmits(sim.AllFlows), res.TotalTimeouts(sim.AllFlows))
}
