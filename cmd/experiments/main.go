// Command experiments regenerates the paper's figures on this
// repository's simulator.
//
// Usage:
//
//	experiments -list
//	experiments -fig fig10                # one figure, default scale
//	experiments -fig fig3,fig4,fig7      # several
//	experiments -fig all -flows 400      # everything, smaller runs
//	experiments -fig ablations           # the design-choice ablations
//	experiments -fig figF1,figF2         # dynamic link-fault experiments
//
// Output is a plain-text rendering of each panel: bars as
// "label value" rows, curves as "# name" headers followed by "x y"
// rows — the series the paper plots.
//
// For performance work, -cpuprofile and -memprofile write pprof
// profiles covering the experiment runs (inspect with `go tool pprof`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"tlb/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run holds the real main body and returns the exit code, so the
// deferred profile writers below run on every path (a bare os.Exit in
// main would skip them).
func run() int {
	var (
		figs       = flag.String("fig", "all", "comma-separated experiment names, \"all\", or \"ablations\"")
		list       = flag.Bool("list", false, "list available experiments and exit")
		seed       = flag.Uint64("seed", 42, "root RNG seed (same seed = identical numbers)")
		flows      = flag.Int("flows", 800, "flows per large-scale run (fig10-12)")
		points     = flag.Int("points", 0, "cap sweep points per figure (0 = figure default)")
		workers    = flag.Int("workers", 0, "concurrent simulations per sweep (0 = GOMAXPROCS); any value produces identical figures")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		timing     = flag.Bool("time", false, "print wall-clock time per experiment")
		format     = flag.String("format", "plain", "output format: plain or csv")
		dumpSpecs  = flag.String("dump-specs", "", "write every scenario spec the experiments run as JSON files under this directory")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
			}
		}()
	}

	if *list {
		fmt.Printf("%-22s %-18s %s\n", "NAME", "PAPER", "DESCRIPTION")
		for _, e := range experiments.Registry() {
			fmt.Printf("%-22s %-18s %s\n", e.Name, e.Paper, e.Description)
		}
		return 0
	}

	entries, err := experiments.Lookup(*figs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}

	opt := experiments.Options{
		Seed:        *seed,
		FlowsPerRun: *flows,
		SweepPoints: *points,
		Workers:     *workers,
		DumpSpecs:   *dumpSpecs,
	}
	if !*quiet {
		opt.Log = os.Stderr
	}

	for _, e := range entries {
		start := time.Now()
		fmt.Printf("#### %s (%s): %s\n", e.Name, e.Paper, e.Description)
		figs, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			return 1
		}
		for _, f := range figs {
			switch *format {
			case "csv":
				fmt.Print(f.CSV())
			default:
				fmt.Println(f.Format())
			}
		}
		if *timing {
			fmt.Printf("(%s took %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}
