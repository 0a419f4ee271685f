// Websearch: a scaled-down version of the paper's §6.2 large-scale
// evaluation. The spec beside this file offers Poisson flow arrivals
// sized from the DCTCP web-search distribution to a 4-leaf/8-spine
// fabric; the example reruns it at increasing load (relative to the
// aggregate leaf-uplink capacity — every flow crosses the fabric)
// under every scheme and prints the short-flow AFCT and long-flow
// goodput of each — the shape of the paper's Fig. 10.
//
// Run with:
//
//	go run ./examples/websearch
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
		{Name: "letflow", Params: spec.Params{"gap": "150us"}},
		sp.Scheme, // tlb, with X set to the web-search shorts' mean
	}

	fmt.Printf("%-8s", "load")
	for _, s := range schemes {
		fmt.Printf("  %14s", s.Name)
	}
	fmt.Println("      (short AFCT ms | long goodput Gbps)")

	for _, load := range []float64{0.3, 0.5, 0.8} {
		sp.Workload.Load = load
		fmt.Printf("%-8.1f", load)
		for _, s := range schemes {
			sp.Name = fmt.Sprintf("websearch-%s-%.1f", s.Name, load)
			sp.Scheme = s
			sc, err := sp.Compile()
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Run(sc)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %6.2f | %5.2f", res.AFCT(sim.ShortFlows).Millis(),
				float64(res.Goodput(sim.LongFlows))/1e9)
		}
		fmt.Println()
	}
}
