// Package experiments regenerates every figure of the paper's
// evaluation (§2.2 motivation, §4.2 model verification, §6 NS2
// simulations, §7 testbed) on this repository's simulator. Each FigNN
// function returns the plotted series/bars; cmd/experiments prints
// them.
//
// Every figure builds its scenarios as declarative spec.Spec values
// and runs them through Options.runSpecs, so each run an experiment
// performs is serializable JSON (Options.DumpSpecs) that tlbsim -spec
// reproduces byte for byte.
//
// Scale note: the returned shapes (who wins, by what factor, where
// curves cross) are the reproduction target; absolute numbers differ
// from the paper because the substrate is this repo's simulator, not
// the authors' NS2 scripts. Options.FlowsPerRun and SweepPoints trade
// fidelity for runtime.
package experiments

import (
	"fmt"
	"io"
	"time"

	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/units"
)

// Options control experiment scale and reporting.
type Options struct {
	// Seed drives all randomness; the same seed reproduces every
	// number exactly.
	Seed uint64
	// FlowsPerRun is the number of flows in each large-scale run
	// (Fig. 10-12). More flows = tighter estimates, longer runs.
	FlowsPerRun int
	// SweepPoints caps the number of x-axis points per sweep; 0 keeps
	// each figure's default grid.
	SweepPoints int
	// Workers caps how many scenarios the shared sweep runner executes
	// concurrently; 0 means runtime.GOMAXPROCS(0). Any worker count
	// produces byte-identical figures: scenarios own their seeds, and
	// results are reduced in input order.
	Workers int
	// DumpSpecs, when set, writes every scenario an experiment runs as
	// a spec JSON file into this directory before running it.
	DumpSpecs string
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Cost, when non-nil, sums the cost of every run that finishes.
	Cost *sim.RunCost

	// specObserver, when non-nil, sees every spec a figure builds just
	// before compilation (test hook for round-trip checks).
	specObserver func(prefix string, sp *spec.Spec)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// runBatch submits one experiment's scenario batch to the shared
// concurrent runner (sim.RunSweep) and returns the results in input
// order. Progress lines ("prefix: [k/n] name (elapsed)") go to o.Log
// as scenarios finish, so long sweeps stay visible.
//
// The figure runners consume the session observer stream directly
// (terminal events only — figure sweeps want k/n lines, not periodic
// snapshots, so snapshots stay disabled and each run is one engine
// call; see DESIGN.md §15).
func (o Options) runBatch(prefix string, scs []sim.Scenario) ([]*sim.Result, error) {
	return sim.RunSweep(scs, sim.SweepOptions{
		Workers: o.Workers,
		Observer: sim.ObserverFunc(func(ev sim.ProgressEvent) {
			if ev.Kind != sim.ProgressDone {
				return
			}
			if ev.Err != nil {
				o.logf("%s: [%d/%d] %s FAILED after %v: %v",
					prefix, ev.Completed, ev.Total, ev.Scenario, ev.Elapsed.Round(time.Millisecond), ev.Err)
				return
			}
			o.logf("%s: [%d/%d] %s (%v)",
				prefix, ev.Completed, ev.Total, ev.Scenario, ev.Elapsed.Round(time.Millisecond))
			if o.Cost != nil {
				o.Cost.Add(ev)
			}
		}),
	})
}

// trim reduces a sweep grid to at most o.SweepPoints entries, keeping
// the endpoints.
func trim[T any](o Options, xs []T) []T {
	if o.SweepPoints <= 0 || len(xs) <= o.SweepPoints {
		return xs
	}
	if o.SweepPoints == 1 {
		return xs[len(xs)-1:]
	}
	out := make([]T, 0, o.SweepPoints)
	for i := 0; i < o.SweepPoints; i++ {
		idx := i * (len(xs) - 1) / (o.SweepPoints - 1)
		out = append(out, xs[idx])
	}
	return out
}

// Bar is one categorical result (one bar of a bar chart).
type Bar struct {
	Label string
	Value float64
}

// Figure is one reproduced panel: either curves (Series) or bars.
type Figure struct {
	ID     string // e.g. "fig10a"
	Title  string
	XLabel string
	YLabel string
	Series []stats.Series
	Bars   []Bar
}

// CSV renders the figure as comma-separated rows: bars as
// "label,value", curves as "series,x,y" — convenient for piping into
// plotting tools.
func (f *Figure) CSV() string {
	out := fmt.Sprintf("# %s,%s\n", f.ID, f.Title)
	for _, b := range f.Bars {
		out += fmt.Sprintf("%s,%g\n", b.Label, b.Value)
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			out += fmt.Sprintf("%s,%g,%g\n", s.Name, p.X, p.Y)
		}
	}
	return out
}

// Format renders the figure for terminal output.
func (f *Figure) Format() string {
	out := fmt.Sprintf("== %s: %s ==\n", f.ID, f.Title)
	if f.XLabel != "" || f.YLabel != "" {
		out += fmt.Sprintf("   x: %s | y: %s\n", f.XLabel, f.YLabel)
	}
	for _, b := range f.Bars {
		out += fmt.Sprintf("%-24s %.6g\n", b.Label, b.Value)
	}
	for _, s := range f.Series {
		out += s.Format()
	}
	return out
}

// add appends (x, y) to the named series, creating the series after
// the existing ones on first use.
func (f *Figure) add(series string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].Add(x, y)
			return
		}
	}
	f.Series = append(f.Series, stats.Series{Name: series})
	f.Series[len(f.Series)-1].Add(x, y)
}

// Scheme names a registered balancer plus its parameters — pure data,
// resolved through the lb registry at compile time. Replicate adds
// RepFlow-style end-host copies on top (RepFlow runs ECMP at the
// switch and replicates mice at the hosts).
type Scheme struct {
	// Name is the registry name (lb.Names() enumerates them).
	Name string
	// Label, when set, is the display name results carry ("flow" for
	// ecmp in the motivation figures); it defaults to Name.
	Label     string
	Params    spec.Params
	Replicate bool
}

// label returns the display name.
func (s Scheme) label() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Name
}

// schemeSpec renders the scheme clause of a spec.
func (s Scheme) schemeSpec() spec.Scheme {
	return spec.Scheme{Name: s.Name, Label: s.Label, Params: s.Params}
}

// baselines returns the four comparison schemes of the paper's §6 in
// its plotting order. flowletGap parameterizes LetFlow (150 µs in NS2
// experiments, 15 ms on the slow testbed).
func baselines(flowletGap units.Time) []Scheme {
	return []Scheme{
		{Name: "ecmp"},
		{Name: "rps"},
		{Name: "presto"},
		{Name: "letflow", Params: spec.Params{"gap": pDur(flowletGap)}},
	}
}

// ---- Shared scenario environments ----
//
// A figure is a grid of environments × schemes: it renders each cell
// with env.spec, runs the batch, and reduces the results in input
// order. An environment keeps its fabric as a topology.Config (Fig.
// 7's model parameters and the Fig. 16/17 overrides read it typed) and
// states everything else — transport, workload, deadlines — as the
// spec values its scenarios carry. What it does not state is the
// registry's default.

// env is one scenario environment: the fabric, the transport (nil: the
// paper's DCTCP), the workload and the run's time limit.
type env struct {
	topo      topology.Config
	transport *spec.Transport
	workload  spec.Workload
	maxTime   units.Time
}

// spec builds one scheme's scenario in this environment.
func (e env) spec(s Scheme, name string, seed uint64) spec.Spec {
	return spec.Spec{
		Version:   spec.Version,
		Name:      name,
		Seed:      seed,
		Scheme:    s.schemeSpec(),
		Topology:  topoSpec(e.topo),
		Transport: e.transport,
		Workload:  e.workload,
		Replicate: s.Replicate,
		Run:       spec.Run{MaxTime: spec.Dur(e.maxTime)},
	}
}

// ns2 gives a fabric the NS2 simulations' links and queue: 1 Gbps,
// 5 µs host and 10 µs fabric hops (~100 µs RTT), ECN marking at 65
// packets in a buffer of the given size.
func ns2(t topology.Config, buffer int) topology.Config {
	t.HostLink = netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond}
	t.FabricLink = netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond}
	t.Queue = netem.QueueConfig{Capacity: buffer, ECNThreshold: 65}
	return t
}

// paperDeadlines is the §6 deadline assignment: U[5ms, 25ms] on flows
// up to 100KB.
func paperDeadlines() *spec.Deadlines {
	return &spec.Deadlines{Min: "5ms", Max: "25ms", OnlyBelow: "100KB"}
}

// "Random size of less than 100KB" with the 70KB mean §4.2 quotes:
// uniform on [40KB, 100KB].
const (
	basicShortMin = 40 * units.KB
	basicShortMax = 100 * units.KB
)

// basicEnv is the paper's small-scale environment (§2.2, §4.2, §6.1):
// a leaf-spine with 15 equal-cost paths, the given buffer (256 packets
// in §2.2/§6.1, 512 in §4.2) and a static mix — senders on leaf 0,
// receivers on leaf 1, shorts bursting into the established longs over
// a few ms (the §2.2 contention scenario). TLB runs on its registry
// defaults here (X = 70 KB is the mean of the short sizes).
func basicEnv(buffer, shorts, longs int) env {
	return env{
		topo: ns2(topology.Config{Leaves: 2, Spines: 15, HostsPerLeaf: 15}, buffer),
		workload: spec.Workload{
			Kind: "mix",
			Groups: []spec.MixGroup{{
				Shorts:        shorts,
				Longs:         longs,
				ShortSizes:    &spec.SizeDist{Kind: "uniform", Min: spec.Sz(basicShortMin), Max: spec.Sz(basicShortMax)},
				LongSizes:     &spec.SizeDist{Kind: "fixed", Size: "10MB"},
				ArrivalJitter: spec.Dur(5 * units.Millisecond),
			}},
			Deadlines: paperDeadlines(),
		},
		maxTime: 30 * units.Second,
	}
}

// largeEnv is the §6.2 web-search / data-mining environment: 8 leaves,
// 8 spines, Poisson arrivals at a target fabric load (defined against
// the aggregate leaf-uplink capacity, the convention of the
// load-balancing literature the paper follows; all flows cross the
// fabric).
func largeEnv(sizes spec.SizeDist, flows int, load float64) env {
	return env{
		topo: ns2(topology.Config{Leaves: 8, Spines: 8, HostsPerLeaf: 32}, 256),
		workload: spec.Workload{
			Kind:      "poisson",
			Flows:     flows,
			Load:      load,
			Sizes:     &sizes,
			Deadlines: paperDeadlines(),
		},
		maxTime: 60 * units.Second,
	}
}

// loadName names a large-environment run after its scheme and load.
func loadName(s Scheme, load float64) string {
	return fmt.Sprintf("%s-load%.1f", s.label(), load)
}

// websearchSizes is the web-search CDF truncated at 20MB (the
// experiments bound the heavy tail to keep run times finite).
func websearchSizes() spec.SizeDist {
	return spec.SizeDist{Kind: "websearch", Truncate: spec.Sz(20 * units.MB)}
}

// dataminingSizes is the data-mining CDF truncated at 50MB.
func dataminingSizes() spec.SizeDist {
	return spec.SizeDist{Kind: "datamining", Truncate: spec.Sz(50 * units.MB)}
}

// fatTreeEnv is a k-ary fat-tree on the NS2 links carrying inter-pod
// flows: host pairs in different pods, uniform random arrival gaps up
// to maxGap, and §6-style deadlines on the mice.
func fatTreeEnv(k, flows int, sizes spec.SizeDist, maxGap, maxTime units.Time) env {
	return env{
		topo: ns2(topology.Config{K: k}, 256),
		workload: spec.Workload{
			Kind: "interpod",
			InterPod: &spec.InterPod{
				Flows:             flows,
				Sizes:             sizes,
				MaxGap:            spec.Dur(maxGap),
				DeadlineBase:      spec.Dur(5 * units.Millisecond),
				DeadlineJitter:    spec.Dur(20 * units.Millisecond),
				DeadlineOnlyBelow: spec.Sz(100 * units.KB),
			},
		},
		maxTime: maxTime,
	}
}
