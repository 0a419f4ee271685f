// Asymmetric: the paper's §7 asymmetry study (Fig. 16/17 shape) on a
// slow testbed-style fabric — the spec beside this file, whose
// transport RTO floor and TLB timers are scaled to its ~8 ms RTT (the
// paper uses a 15 ms update interval and D = 3 s here). Two of the ten
// leaf-to-spine paths are then degraded through topology.overrides —
// extra delay in one run, reduced bandwidth in another — and the
// example shows how each scheme copes. Congestion-oblivious schemes
// (RPS, Presto) keep spraying onto the bad paths; TLB and LetFlow route
// around them.
//
// Run with:
//
//	go run ./examples/asymmetric
package main

import (
	_ "embed"
	"fmt"
	"log"

	"tlb/internal/sim"
	"tlb/internal/spec"

	// The tlb scheme registers itself with the lb registry.
	_ "tlb/internal/core"
)

//go:embed spec.json
var specJSON []byte

func main() {
	sp, err := spec.LoadBytes(specJSON)
	if err != nil {
		log.Fatal(err)
	}
	schemes := []spec.Scheme{
		{Name: "ecmp"},
		{Name: "rps"},
		{Name: "presto"},
		{Name: "letflow", Params: spec.Params{"gap": "15ms"}},
		sp.Scheme, // tlb on the testbed's timers
	}
	// degrade re-parameterizes leaf 0's links to spines 2 and 7.
	degrade := func(l spec.Link) []spec.Override {
		return []spec.Override{{Leaf: 0, Spine: 2, Link: l}, {Leaf: 0, Spine: 7, Link: l}}
	}

	for _, v := range []struct {
		name      string
		overrides []spec.Override
	}{
		{"symmetric", nil},
		{"2 links +4ms delay", degrade(spec.Link{Bandwidth: "20Mbps", Delay: "5ms"})},
		{"2 links at 5Mbps", degrade(spec.Link{Bandwidth: "5Mbps", Delay: "1ms"})},
	} {
		sp.Topology.Overrides = v.overrides
		fmt.Printf("--- %s ---\n", v.name)
		fmt.Printf("%-8s %12s %12s %14s %8s\n", "scheme", "short AFCT", "short p99", "long goodput", "rtx")
		for _, s := range schemes {
			sp.Name = "asym-" + s.Name
			sp.Scheme = s
			sc, err := sp.Compile()
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Run(sc)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s %12v %12v %9.2f Mbps %8d\n",
				s.Name,
				res.AFCT(sim.ShortFlows),
				res.FCTPercentile(sim.ShortFlows, 99),
				float64(res.Goodput(sim.LongFlows))/1e6,
				res.TotalRetransmits(sim.AllFlows))
		}
		fmt.Println()
	}
}
