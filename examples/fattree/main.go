// Fattree: the same load-balancing schemes on a 3-tier k=4 fat-tree
// (Al-Fares et al.; 16 hosts, 4 pods, 4 cores, (k/2)^2 = 4 inter-pod
// paths), where every packet crosses TWO balancing decisions — the edge
// switch picks the aggregation switch and the aggregation switch picks
// the core. The paper evaluates on a 2-tier leaf-spine; this example
// shows the library generalizes to the multi-rooted trees its
// introduction motivates. The spec beside this file sends elephants
// and a burst of mice from pod 0 to the other three pods.
//
// Run with:
//
//	go run ./examples/fattree
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

	fmt.Printf("%-8s %12s %12s %14s\n", "scheme", "short AFCT", "short p99", "long goodput")
	for _, s := range []spec.Scheme{
		{Name: "ecmp"},
		{Name: "letflow", Params: spec.Params{"gap": "150us"}},
		{Name: "drill"},
		sp.Scheme, // tlb, an instance at every edge and aggregation switch
	} {
		sp.Name = "fattree-" + s.Name
		sp.Scheme = s
		sc, err := sp.Compile()
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %12v %12v %11.3f Gbps\n",
			s.Name,
			res.AFCT(sim.ShortFlows),
			res.FCTPercentile(sim.ShortFlows, 99),
			float64(res.Goodput(sim.LongFlows))/1e9)
	}
}
