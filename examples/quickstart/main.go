// Quickstart: load the scenario spec that ships beside this file — a
// small leaf-spine fabric, a few elephants hogging paths while a burst
// of latency-sensitive mice tries to get through (the paper's §2
// scenario), one uplink failing mid-run — run it under ECMP and under
// the scheme the spec names (TLB), and compare what the paper cares
// about: short-flow completion times and long-flow throughput.
//
// A spec is the one description of a run: everything here is a field of
// spec.json, and the same file runs unchanged under the CLI.
//
//	go run ./examples/quickstart
//	go run ./cmd/tlbsim -spec examples/quickstart/spec.json
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

	fmt.Printf("%-6s %12s %12s %10s %14s\n",
		"scheme", "short AFCT", "short p99", "miss %", "long goodput")
	// TLB learns the fabric it balances for (link rate, RTT, buffer
	// depth) and the hosts' transport (MSS, receive window) from the
	// spec's topology and transport; scheme.params states only what
	// deviates from the paper's defaults (`tlbsim -list-schemes`).
	for _, scheme := range []spec.Scheme{{Name: "ecmp"}, sp.Scheme} {
		sp.Scheme = scheme
		sc, err := sp.Compile()
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %12v %12v %9.1f%% %11.3f Gbps\n",
			scheme.Name,
			res.AFCT(sim.ShortFlows),
			res.FCTPercentile(sim.ShortFlows, 99),
			res.DeadlineMissRatio(sim.ShortFlows)*100,
			float64(res.Goodput(sim.LongFlows))/1e9)
	}
}
