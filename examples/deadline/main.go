// Deadline: the paper's §6.3 deadline-agnostic study (Fig. 12 shape).
// The switch does not know each flow's real deadline (the spec beside
// this file draws them uniformly from [5ms, 25ms]); instead TLB is
// configured with one fixed D — the 5th, 25th, 50th or 75th percentile
// of that distribution — and the example shows why the paper picks the
// 25th percentile: tight enough to protect the mice, loose enough to
// leave capacity for elephants.
//
// Run with:
//
//	go run ./examples/deadline
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

	fmt.Printf("%-9s %12s %12s %10s %14s\n",
		"variant", "short AFCT", "short p99", "miss %", "long goodput")
	for _, p := range []struct{ label, d string }{
		{"TLB-5th", "5ms"},
		{"TLB-25th", "10ms"},
		{"TLB-50th", "15ms"},
		{"TLB-75th", "20ms"},
	} {
		sp.Name = "deadline-" + p.label
		sp.Scheme.Label = p.label
		sp.Scheme.Params["deadline"] = p.d
		sc, err := sp.Compile()
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %12v %12v %9.1f%% %11.3f Gbps\n",
			p.label,
			res.AFCT(sim.ShortFlows),
			res.FCTPercentile(sim.ShortFlows, 99),
			res.DeadlineMissRatio(sim.ShortFlows)*100,
			float64(res.Goodput(sim.LongFlows))/1e9)
	}
}
