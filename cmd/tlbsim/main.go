// Command tlbsim runs load-balancing scenarios and prints their
// metrics — the quickest way to poke at the simulator.
//
// Usage examples:
//
//	tlbsim -scheme tlb -workload websearch -load 0.6 -flows 500
//	tlbsim -scheme ecmp -workload datamining -load 0.3
//	tlbsim -scheme letflow -workload mix -shorts 100 -longs 3
//	tlbsim -spec examples/quickstart/spec.json
//	tlbsim -spec 'specs/*.json' -workers 4
//	tlbsim -spec examples/quickstart/spec.json -report run.html
//	tlbsim -serve 127.0.0.1:8080
//	tlbsim -list-schemes
//
// Every run is a scenario spec: the workload flags assemble one
// internally (print it with -dump-spec), and -spec runs specs straight
// from JSON files — any scheme in the registry with any parameters,
// no Go required.
//
// Workloads (flag mode):
//
//	websearch   Poisson arrivals, DCTCP web-search flow sizes
//	datamining  Poisson arrivals, VL2 data-mining flow sizes
//	mix         static mix of -shorts short and -longs long flows on a
//	            2-leaf fabric (the paper's §6.1 environment)
package main

import (
	"flag"
	"fmt"
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
	"tlb/internal/trace"
	"tlb/internal/units"

	// The tlb scheme registers itself with the lb registry.
	_ "tlb/internal/core"
)

func main() {
	var (
		scheme   = flag.String("scheme", "tlb", "load balancer scheme (see -list-schemes)")
		load     = flag.Float64("load", 0.5, "fabric load for Poisson workloads (0..1)")
		flows    = flag.Int("flows", 500, "number of flows for Poisson workloads")
		wl       = flag.String("workload", "websearch", "websearch, datamining or mix")
		shorts   = flag.Int("shorts", 100, "short flows (mix workload)")
		longs    = flag.Int("longs", 3, "long flows (mix workload)")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		leaves   = flag.Int("leaves", 8, "leaf switches (Poisson workloads)")
		spines   = flag.Int("spines", 8, "spine switches")
		hosts    = flag.Int("hosts", 16, "hosts per leaf")
		deadline = flag.Duration("deadline", 0, "TLB deadline override (e.g. 10ms); 0 = default")
		traceN   = flag.Int("trace", 0, "print the last N flow lifecycle events after the run")

		specPaths = flag.String("spec", "", "comma-separated spec files or globs to run instead of the flag-built scenario")
		checkOnly = flag.Bool("check-spec", false, "with -spec: validate the files and exit without running")
		workers   = flag.Int("workers", 0, "concurrent runs for multi-file -spec batches (0 = GOMAXPROCS)")
		dumpSpec  = flag.String("dump-spec", "", "write the flag-built scenario's spec JSON to this path (\"-\" = stdout) and exit")
		list      = flag.Bool("list-schemes", false, "list registered schemes and their parameters, then exit")

		serveAddr  = flag.String("serve", "", "serve the run-submission HTTP API on this address (e.g. 127.0.0.1:8080) instead of running locally")
		reportPath = flag.String("report", "", "also write a self-contained HTML report of the run(s) to this path")
	)
	flag.Parse()

	if *list {
		listSchemes(os.Stdout)
		return
	}

	if err := run(options{
		scheme: strings.ToLower(*scheme), wl: strings.ToLower(*wl),
		load: *load, flows: *flows, shorts: *shorts, longs: *longs,
		seed: *seed, leaves: *leaves, spines: *spines, hosts: *hosts,
		deadline: units.Time(deadline.Nanoseconds()), traceN: *traceN,
		specPaths: *specPaths, checkOnly: *checkOnly,
		workers: *workers, dumpSpec: *dumpSpec,
		serveAddr: *serveAddr, reportPath: *reportPath,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tlbsim:", err)
		os.Exit(1)
	}
}

type options struct {
	scheme, wl            string
	load                  float64
	flows, shorts, longs  int
	seed                  uint64
	leaves, spines, hosts int
	deadline              units.Time
	traceN                int
	specPaths, dumpSpec   string
	checkOnly             bool
	workers               int
	serveAddr             string
	reportPath            string
}

func run(o options) error {
	if o.serveAddr != "" {
		return serveMode(o.serveAddr, o.workers)
	}
	if o.specPaths != "" {
		files, err := expandSpecPaths(o.specPaths)
		if err != nil {
			return err
		}
		if o.checkOnly {
			return checkSpecs(files)
		}
		return runSpecFiles(files, o.workers, o.traceN, o.reportPath)
	}
	if o.checkOnly {
		return fmt.Errorf("-check-spec needs -spec")
	}

	sp, err := flagSpec(o)
	if err != nil {
		return err
	}
	if o.dumpSpec != "" {
		return writeSpec(sp, o.dumpSpec)
	}
	return runOne(sp, o.traceN, o.reportPath)
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

// flagSpec assembles the scenario spec the workload flags describe.
func flagSpec(o options) (*spec.Spec, error) {
	mkTopo := func(l, s, h int) spec.Topology {
		return spec.Topology{
			Leaves: l, Spines: s, HostsPerLeaf: h,
			HostLink:   spec.Link{Bandwidth: spec.Bw(units.Gbps), Delay: spec.Dur(5 * units.Microsecond)},
			FabricLink: spec.Link{Bandwidth: spec.Bw(units.Gbps), Delay: spec.Dur(10 * units.Microsecond)},
			Queue:      spec.Queue{Capacity: 256, ECNThreshold: 20},
		}
	}
	deadlines := &spec.Deadlines{
		Min: spec.Dur(5 * units.Millisecond), Max: spec.Dur(25 * units.Millisecond),
		OnlyBelow: spec.Sz(100 * units.KB),
	}

	sp := &spec.Spec{
		Version: spec.Version,
		Name:    fmt.Sprintf("%s-%s", o.scheme, o.wl),
		Seed:    o.seed,
		Scheme:  spec.Scheme{Name: o.scheme},
		Run: spec.Run{
			MaxTime:      spec.Dur(60 * units.Second),
			StopWhenDone: true,
		},
	}
	// The deadline override only means something to tlb; other schemes
	// ignore it, matching the flag's historical behavior.
	if o.deadline > 0 && o.scheme == "tlb" {
		sp.Scheme.Params = spec.Params{"deadline": string(spec.Dur(o.deadline))}
	}

	switch o.wl {
	case "websearch", "datamining":
		sp.Topology = mkTopo(o.leaves, o.spines, o.hosts)
		sizes := &spec.SizeDist{Kind: "websearch", Truncate: spec.Sz(20 * units.MB)}
		if o.wl == "datamining" {
			sizes = &spec.SizeDist{Kind: "datamining", Truncate: spec.Sz(50 * units.MB)}
		}
		sp.Workload = spec.Workload{
			Kind: "poisson", Flows: o.flows, Load: o.load,
			Sizes: sizes, Deadlines: deadlines,
		}
	case "mix":
		sp.Topology = mkTopo(2, 15, 15)
		sp.Workload = spec.Workload{
			Kind: "mix",
			Groups: []spec.MixGroup{{
				Shorts:        o.shorts,
				Longs:         o.longs,
				ShortSizes:    &spec.SizeDist{Kind: "uniform", Min: spec.Sz(40 * units.KB), Max: spec.Sz(100 * units.KB)},
				LongSizes:     &spec.SizeDist{Kind: "fixed", Size: spec.Sz(10 * units.MB)},
				ArrivalJitter: spec.Dur(20 * units.Millisecond),
			}},
			Deadlines: deadlines,
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (websearch, datamining, mix)", o.wl)
	}
	return sp, nil
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
func checkSpecs(files []string) error {
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
		fmt.Printf("%s: ok\n", f)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d specs invalid", bad, len(files))
	}
	return nil
}

// runSpecFiles compiles and runs the spec files; multi-file batches go
// through the sweep worker pool and report each result in input order.
func runSpecFiles(files []string, workers, traceN int, reportPath string) error {
	if len(files) == 1 {
		sp, err := spec.Load(files[0])
		if err != nil {
			return err
		}
		return runOne(sp, traceN, reportPath)
	}
	if traceN > 0 {
		return fmt.Errorf("-trace needs a single scenario, got %d spec files", len(files))
	}
	specs := make([]*spec.Spec, len(files))
	scenarios := make([]sim.Scenario, len(files))
	tracers := make([]*trace.Tracer, len(files))
	for i, f := range files {
		sp, err := spec.Load(f)
		if err != nil {
			return err
		}
		specs[i] = sp
		scenarios[i], err = sp.Compile()
		if err != nil {
			return err
		}
		if reportPath != "" && len(sp.Faults) > 0 {
			tracers[i] = trace.New(0).WithFilter(trace.Filter{Kinds: []trace.EventKind{trace.LinkFault}})
			scenarios[i].Tracer = tracers[i]
		}
	}
	results, err := sim.RunSweep(scenarios, sim.SweepOptions{
		Workers: workers,
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
			fmt.Println()
		}
		printResult(res)
	}
	if reportPath != "" {
		items := make([]report.Item, len(results))
		for i, res := range results {
			items[i] = report.Item{
				Scenario: specs[i].Name, Scheme: schemeLabel(specs[i]),
				Result: res, Faults: tracers[i].Events(),
			}
		}
		return writeReport(reportPath, report.Campaign{Title: "tlbsim batch", Items: items})
	}
	return nil
}

// runOne compiles and runs a single spec, with optional tracing.
func runOne(sp *spec.Spec, traceN int, reportPath string) error {
	sc, err := sp.Compile()
	if err != nil {
		return err
	}
	var tr *trace.Tracer
	switch {
	case traceN > 0:
		tr = trace.New(traceN)
		sc.Tracer = tr
	case reportPath != "" && len(sp.Faults) > 0:
		// The report's fault timeline needs the LinkFault events.
		sc.Tracer = trace.New(0).WithFilter(trace.Filter{Kinds: []trace.EventKind{trace.LinkFault}})
	}
	res, err := sim.Run(sc)
	if err != nil {
		return err
	}
	printResult(res)
	if tr != nil {
		fmt.Println("--- trace ---")
		tr.Dump(os.Stdout)
		fmt.Println("--- trace summary ---")
		tr.Summary(os.Stdout)
	}
	if reportPath != "" {
		c := report.Campaign{Title: "tlbsim run " + sp.Name, Items: []report.Item{{
			Scenario: sp.Name, Scheme: schemeLabel(sp),
			Result: res, Faults: sc.Tracer.Events(),
		}}}
		return writeReport(reportPath, c)
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

// writeSpec marshals the spec to path ("-" = stdout).
func writeSpec(sp *spec.Spec, path string) error {
	data, err := sp.Marshal()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// listSchemes prints the registry: every scheme, its doc line, and its
// parameter schema.
func listSchemes(w *os.File) {
	for _, name := range lb.Names() {
		r, ok := lb.Lookup(name)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\n    %s\n", r.Name, r.Doc)
		for _, p := range r.Params {
			fmt.Fprintf(w, "    %-16s %-10s %s\n", p.Name, p.Kind, p.Doc)
		}
	}
}

func printResult(res *sim.Result) {
	fmt.Printf("scenario        %s\n", res.Scenario)
	fmt.Printf("sim time        %v\n", res.EndTime)
	fmt.Printf("flows           %d (%d short, %d long), %d completed\n",
		res.Count(sim.AllFlows), res.Count(sim.ShortFlows), res.Count(sim.LongFlows),
		res.CompletedCount(sim.AllFlows))
	fmt.Printf("drops           %d\n", res.Drops)
	fmt.Printf("short AFCT      %v\n", res.AFCT(sim.ShortFlows))
	fmt.Printf("short 99th FCT  %v\n", res.FCTPercentile(sim.ShortFlows, 99))
	fmt.Printf("deadline misses %.1f%%\n", res.DeadlineMissRatio(sim.ShortFlows)*100)
	fmt.Printf("long AFCT       %v\n", res.AFCT(sim.LongFlows))
	fmt.Printf("long goodput    %.3f Gbps/flow\n", float64(res.Goodput(sim.LongFlows))/1e9)
	fmt.Printf("short OOO ratio %.4f\n", res.OutOfOrderRatio(sim.ShortFlows))
	fmt.Printf("long OOO ratio  %.4f\n", res.OutOfOrderRatio(sim.LongFlows))
	fmt.Printf("uplink util     %.3f\n", res.UplinkUtilization())
	fmt.Printf("retransmits     %d (timeouts %d)\n",
		res.TotalRetransmits(sim.AllFlows), res.TotalTimeouts(sim.AllFlows))
}
