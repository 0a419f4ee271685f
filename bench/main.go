// Command bench is the repository's benchmark: four named workloads
// (three of them gated by BENCHMARK.json) run through the real
// spec → sim.Session / sim.RunSweep path, a set of end-to-end metrics measured on untraced fresh-process repetitions,
// and a per-layer ledger measured from outside the program by a
// separate traced pass. BENCHMARK.json at the repository root fixes the
// workload and metric names; README.md explains them.
//
//	go run ./bench                          all workloads, both passes, 5 rounds
//	go run ./bench -workload fattree-mice   one workload, both passes
//	go run ./bench -workload scheme-sweep -seed 7 -seconds 25 -trace 0
//	go run ./bench -compare old.json new.json
//	go run ./bench -list
//
// With one workload and one pass (-trace 0 or 1) the last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics. Run it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	// The tlb scheme registers itself with the lb registry; without it
	// spec.Compile rejects the scheme name.
	_ "tlb/internal/core"
)

func main() {
	var (
		o       options
		child   = flag.String("child", "", "internal: run one repetition of the named workload in this process and print its report")
		list    = flag.Bool("list", false, "list the workloads and exit")
		cmp     = flag.Bool("compare", false, "compare two results files (old.json new.json) against BENCHMARK.json's bounds; exit 1 on any \"worse\"")
		specArg = flag.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json (for -compare and -list)")
	)
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed, written into every spec before compilation")
	flag.StringVar(&o.only, "workload", "", "run only this workload (default: all)")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end pass only; 1: traced per-layer pass; -1: both")
	flag.IntVar(&o.reps, "reps", 5, "repetitions of each workload and pass, when -seconds is 0")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure for about this many seconds instead of a fixed -reps")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for the results and trace files")
	flag.BoolVar(&o.golden, "update-golden", false, "pin this run's digests as the default seed's golden digests")
	flag.Parse()

	if err := dispatch(o, *child, *list, *cmp, *specArg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(o options, child string, list, cmp bool, specPath string) error {
	switch {
	case child != "":
		w, ok := findWorkload(child)
		if !ok {
			return fmt.Errorf("unknown workload %q (have: %s)", child, workloadNames())
		}
		rep, err := runRep(w, o.seed, o.trace == 1, 1)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	case list:
		return listWorkloads(specPath, o.seed)
	case cmp:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files: old.json new.json")
		}
		spec, err := loadBenchmarkSpec(specPath)
		if err != nil {
			return err
		}
		oldFile, err := loadResults(flag.Arg(0))
		if err != nil {
			return err
		}
		newFile, err := loadResults(flag.Arg(1))
		if err != nil {
			return err
		}
		if compare(os.Stdout, spec, oldFile, newFile) {
			return fmt.Errorf("at least one end-to-end metric is worse than its bound allows")
		}
		return nil
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	return run(o, os.Stdout)
}

// listWorkloads prints each workload's size at the given seed and the
// reason BENCHMARK.json records for it.
func listWorkloads(specPath string, seed uint64) error {
	spec, err := loadBenchmarkSpec(specPath)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		comp, err := w.compile(seed, 1)
		if err != nil {
			return err
		}
		var flows, bytes int64
		for i := range comp {
			n, b := offered(&comp[i].sc)
			flows += n
			bytes += int64(b)
		}
		fmt.Printf("%-22s %2d scenario(s), %6d flows, %.3f GB offered at seed %d\n", w.Name, len(comp), flows, float64(bytes)/1e9, seed)
		for _, s := range spec.Workloads {
			if s.Name == w.Name {
				fmt.Printf("    %s\n", s.Why)
			}
		}
		if w.Ungated != "" {
			fmt.Printf("    not in BENCHMARK.json: %s\n", w.Ungated)
		}
	}
	return nil
}
