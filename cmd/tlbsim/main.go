// Command tlbsim runs scenario spec files and prints their metrics —
// the quickest way to poke at the simulator.
//
// Usage examples:
//
//	tlbsim -spec cmd/tlbsim/specs/websearch.json
//	tlbsim -spec examples/quickstart/spec.json -report run.html
//	tlbsim -spec 'cmd/tlbsim/specs/*.json' -workers 4
//	tlbsim -check-spec -spec my.json
//	tlbsim -serve 127.0.0.1:8080
//	tlbsim -list-schemes
//
// A scenario is a spec file (internal/spec): any scheme in the registry
// with any parameters, no Go required. cmd/tlbsim/specs holds three
// presets to start from:
//
//	websearch.json   Poisson arrivals, DCTCP web-search flow sizes, TLB
//	                 at load 0.5 on an 8x8 leaf-spine
//	datamining.json  the same fabric under VL2 data-mining flow sizes
//	mix.json         100 short + 3 long flows on a 2-leaf fabric (the
//	                 paper's §6.1 environment)
//
// To vary a run, copy a preset, edit the field and validate the copy
// with -check-spec, whose errors name the JSON path at fault.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tlb/internal/lb"
	"tlb/internal/report"
	"tlb/internal/serve"
	"tlb/internal/sim"
	"tlb/internal/spec"

	// The tlb scheme registers itself with the lb registry.
	_ "tlb/internal/core"
)

func main() {
	var o options
	flag.StringVar(&o.specPaths, "spec", "", "comma-separated spec files or globs to run (presets: cmd/tlbsim/specs/*.json)")
	flag.BoolVar(&o.checkOnly, "check-spec", false, "with -spec: validate the files and exit without running")
	flag.IntVar(&o.workers, "workers", 0, "concurrent runs for multi-file -spec batches (0 = GOMAXPROCS)")
	flag.StringVar(&o.reportPath, "report", "", "also write a self-contained HTML report of the run(s) to this path")
	flag.StringVar(&o.serveAddr, "serve", "", "serve the run-submission HTTP API on this address (e.g. 127.0.0.1:8080) instead of running locally")
	list := flag.Bool("list-schemes", false, "list registered schemes and their parameters, then exit")
	flag.Parse()

	if *list {
		listSchemes(os.Stdout)
		return
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tlbsim:", err)
		os.Exit(1)
	}
}

type options struct {
	specPaths  string
	checkOnly  bool
	workers    int
	reportPath string
	serveAddr  string
}

// run executes one invocation; results and -check-spec verdicts go to
// stdout, progress and diagnostics to stderr.
func run(o options, stdout io.Writer) error {
	if o.serveAddr != "" {
		return serveMode(o.serveAddr, o.workers)
	}
	if o.specPaths == "" {
		return fmt.Errorf("nothing to run: pass -spec <files> (presets to copy and edit: cmd/tlbsim/specs/*.json), -serve <addr> or -list-schemes")
	}
	files, err := expandSpecPaths(o.specPaths)
	if err != nil {
		return err
	}
	if o.checkOnly {
		return checkSpecs(files, stdout)
	}
	return runSpecFiles(files, o, stdout)
}

// serveMode runs the HTTP API until the process is killed.
func serveMode(addr string, workers int) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Options{Workers: workers})
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "tlbsim: serving on http://%s (POST /runs, GET /runs/{id}/events, GET /runs/{id}/report, DELETE /runs/{id})\n", ln.Addr())
	return http.Serve(ln, srv)
}

// expandSpecPaths splits the comma-separated -spec value and expands
// each part that contains glob metacharacters.
func expandSpecPaths(arg string) ([]string, error) {
	var files []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.ContainsAny(part, "*?[") {
			matches, err := filepath.Glob(part)
			if err != nil {
				return nil, fmt.Errorf("bad pattern %q: %v", part, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("pattern %q matches no files", part)
			}
			files = append(files, matches...)
			continue
		}
		files = append(files, part)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("-spec names no files")
	}
	return files, nil
}

// checkSpecs validates every file, reporting all problems before
// failing.
func checkSpecs(files []string, stdout io.Writer) error {
	bad := 0
	for _, f := range files {
		sp, err := spec.Load(f)
		if err == nil {
			err = sp.Validate()
		}
		if err != nil {
			bad++
			fmt.Fprintf(os.Stderr, "%s: %v\n", f, err)
			continue
		}
		fmt.Fprintf(stdout, "%s: ok\n", f)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d specs invalid", bad, len(files))
	}
	return nil
}

// runSpecFiles compiles and runs the spec files; multi-file batches go
// through the sweep worker pool and report each result in input order.
func runSpecFiles(files []string, o options, stdout io.Writer) error {
	if len(files) == 1 {
		sp, err := spec.Load(files[0])
		if err != nil {
			return err
		}
		return runOne(sp, o, stdout)
	}
	specs := make([]*spec.Spec, len(files))
	scenarios := make([]sim.Scenario, len(files))
	for i, f := range files {
		sp, err := spec.Load(f)
		if err != nil {
			return err
		}
		specs[i] = sp
		if scenarios[i], err = sp.Compile(); err != nil {
			return err
		}
	}
	results, err := sim.RunSweep(scenarios, sim.SweepOptions{
		Workers: o.workers,
		// Terminal events only: the k/n lines need no periodic snapshots,
		// and without NoSnapshots an attached observer turns on the
		// per-window aggregate clones.
		SnapshotEvery: sim.NoSnapshots,
		Observer: sim.ObserverFunc(func(ev sim.ProgressEvent) {
			if ev.Kind != sim.ProgressDone {
				return
			}
			status := "done"
			if ev.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s (%v)\n",
				ev.Completed, ev.Total, ev.Scenario, status, ev.Elapsed.Round(time.Millisecond))
		}),
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		printResult(stdout, res)
	}
	if o.reportPath != "" {
		items := make([]report.Item, len(results))
		for i, res := range results {
			items[i] = report.Item{Scenario: specs[i].Name, Scheme: schemeLabel(specs[i]), Result: res}
		}
		return writeReport(o.reportPath, report.Campaign{Title: "tlbsim batch", Items: items})
	}
	return nil
}

// runOne compiles and runs a single spec.
func runOne(sp *spec.Spec, o options, stdout io.Writer) error {
	sc, err := sp.Compile()
	if err != nil {
		return err
	}
	res, err := sim.Run(sc)
	if err != nil {
		return err
	}
	printResult(stdout, res)
	if o.reportPath != "" {
		c := report.Campaign{Title: "tlbsim run " + sp.Name, Items: []report.Item{{
			Scenario: sp.Name, Scheme: schemeLabel(sp), Result: res,
		}}}
		return writeReport(o.reportPath, c)
	}
	return nil
}

func schemeLabel(sp *spec.Spec) string {
	if sp.Scheme.Label != "" {
		return sp.Scheme.Label
	}
	return sp.Scheme.Name
}

func writeReport(path string, c report.Campaign) error {
	if err := os.WriteFile(path, report.HTML(c), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tlbsim: report written to %s\n", path)
	return nil
}

// listSchemes prints the registry: every scheme, its doc line, and its
// parameters with their defaults, rendered from the declarations.
func listSchemes(w io.Writer) {
	for _, name := range lb.Names() {
		r, ok := lb.Lookup(name)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\n    %s\n", r.Name, r.Doc)
		for _, p := range r.Params {
			fmt.Fprintf(w, "    %-18s %-8s %s\n", p.Name, p.Kind(), p.Describe())
		}
	}
}

func printResult(w io.Writer, res *sim.Result) {
	fmt.Fprintf(w, "scenario        %s\n", res.Scenario)
	fmt.Fprintf(w, "sim time        %v\n", res.EndTime)
	fmt.Fprintf(w, "flows           %d (%d short, %d long), %d completed\n",
		res.Count(sim.AllFlows), res.Count(sim.ShortFlows), res.Count(sim.LongFlows),
		res.CompletedCount(sim.AllFlows))
	fmt.Fprintf(w, "drops           %d\n", res.Drops)
	fmt.Fprintf(w, "short AFCT      %v\n", res.AFCT(sim.ShortFlows))
	fmt.Fprintf(w, "short 99th FCT  %v\n", res.FCTPercentile(sim.ShortFlows, 99))
	fmt.Fprintf(w, "deadline misses %.1f%%\n", res.DeadlineMissRatio(sim.ShortFlows)*100)
	fmt.Fprintf(w, "long AFCT       %v\n", res.AFCT(sim.LongFlows))
	fmt.Fprintf(w, "long goodput    %.3f Gbps/flow\n", float64(res.Goodput(sim.LongFlows))/1e9)
	fmt.Fprintf(w, "short OOO ratio %.4f\n", res.OutOfOrderRatio(sim.ShortFlows))
	fmt.Fprintf(w, "long OOO ratio  %.4f\n", res.OutOfOrderRatio(sim.LongFlows))
	fmt.Fprintf(w, "uplink util     %.3f\n", res.UplinkUtilization())
	fmt.Fprintf(w, "retransmits     %d (timeouts %d)\n",
		res.TotalRetransmits(sim.AllFlows), res.TotalTimeouts(sim.AllFlows))
}
