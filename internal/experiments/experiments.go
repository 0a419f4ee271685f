// Package experiments regenerates every figure of the paper's
// evaluation (§2.2 motivation, §4.2 model verification, §6 NS2
// simulations, §7 testbed) on this repository's simulator. Each FigNN
// function returns the plotted series/bars; cmd/experiments prints
// them, and the repository benchmarks run reduced-scale versions.
//
// Every figure builds its scenarios as declarative spec.Spec values
// and runs them through Options.runSpecs, so each run an experiment
// performs is serializable JSON (Options.DumpSpecs) that tlbsim -spec
// reproduces byte for byte.
//
// Scale note: the returned shapes (who wins, by what factor, where
// curves cross) are the reproduction target; absolute numbers differ
// from the paper because the substrate is this repo's simulator, not
// the authors' NS2 scripts. Options.Scale trades fidelity for runtime;
// Quick() is what the benchmarks use.
package experiments

import (
	"fmt"
	"io"
	"time"

	"tlb/internal/eventsim"
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

	// specObserver, when non-nil, sees every spec a figure builds just
	// before compilation (test hook for round-trip checks).
	specObserver func(prefix string, sp *spec.Spec)
}

// Default returns the standard reduced-scale options used by
// cmd/experiments (full-figure shapes in minutes on one core).
func Default() Options {
	return Options{Seed: 42, FlowsPerRun: 800}
}

// Quick returns the miniature options used by the benchmarks.
func Quick() Options {
	return Options{Seed: 42, FlowsPerRun: 150, SweepPoints: 3}
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
// snapshots, so snapshots stay disabled and the event-batch slicing is
// provably output-neutral; see DESIGN.md §15).
func (o Options) runBatch(prefix string, scs []sim.Scenario) ([]*sim.Result, error) {
	return sim.RunSweep(scs, sim.SweepOptions{
		Workers:       o.Workers,
		SnapshotEvery: sim.NoSnapshots,
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

// Scheme names a registered balancer plus its parameters — pure data,
// resolved through the lb registry at compile time. Replication adds
// RepFlow-style end-host copies on top (RepFlow runs ECMP at the
// switch and replicates mice at the hosts).
type Scheme struct {
	// Name is the registry name (lb.Names() enumerates them).
	Name string
	// Label, when set, is the display name results carry ("flow" for
	// ecmp in the motivation figures); it defaults to Name.
	Label       string
	Params      spec.Params
	Replication *spec.Replication
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
// An environment keeps its fabric as a topology.Config (Fig. 7's model
// parameters, Fig. 15's direct lb.Build and the Fig. 16/17 overrides
// read it typed) and states everything else — sizes, deadlines,
// transport, TLB parameters — as the spec values its scenarios carry.
// What an environment does not state is the registry's default.

// paperDeadlines is the §6 deadline assignment: U[5ms, 25ms] on flows
// up to 100KB.
func paperDeadlines() *spec.Deadlines {
	return &spec.Deadlines{Min: "5ms", Max: "25ms", OnlyBelow: "100KB"}
}

// basicEnv is the paper's small-scale environment (§2.2, §4.2, §6.1):
// a leaf-spine with 15 equal-cost paths, 1 Gbps links, ~100 µs RTT.
// TLB runs on its registry defaults here (X = 70 KB is the mean of the
// short sizes below).
type basicEnv struct {
	topo   topology.Config
	shorts int
	longs  int
}

// "Random size of less than 100KB" with the 70KB mean §4.2 quotes:
// uniform on [40KB, 100KB].
const (
	basicShortMin = 40 * units.KB
	basicShortMax = 100 * units.KB
)

// newBasicEnv builds the environment with the given buffer size
// (256 packets in §2.2/§6.1, 512 in §4.2) and flow counts.
func newBasicEnv(buffer, shorts, longs int) basicEnv {
	return basicEnv{
		topo: topology.Config{
			Leaves:       2,
			Spines:       15,
			HostsPerLeaf: 15,
			HostLink:     netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
			FabricLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			Queue:        netem.QueueConfig{Capacity: buffer, ECNThreshold: 65},
		},
		shorts: shorts,
		longs:  longs,
	}
}

// spec builds one scheme's scenario description: the static mix
// (senders on leaf 0, receivers on leaf 1, shorts bursting into the
// established longs over a few ms — the §2.2 contention scenario),
// named after the scheme's display label.
func (e basicEnv) spec(s Scheme, seed uint64) spec.Spec {
	return spec.Spec{
		Version:  spec.Version,
		Name:     s.label(),
		Seed:     seed,
		Scheme:   s.schemeSpec(),
		Topology: topoSpec(e.topo),
		Workload: spec.Workload{
			Kind: "mix",
			Groups: []spec.MixGroup{{
				Shorts:        e.shorts,
				Longs:         e.longs,
				ShortSizes:    &spec.SizeDist{Kind: "uniform", Min: spec.Sz(basicShortMin), Max: spec.Sz(basicShortMax)},
				LongSizes:     &spec.SizeDist{Kind: "fixed", Size: "10MB"},
				ArrivalJitter: spec.Dur(5 * units.Millisecond),
			}},
			Deadlines: paperDeadlines(),
		},
		Replication: s.Replication,
		Run: spec.Run{
			MaxTime:      spec.Dur(30 * units.Second),
			StopWhenDone: true,
		},
	}
}

// ---- Large-scale environment (§6.2) ----

// largeEnv is the web-search / data-mining environment: 8 leaves,
// 8 spines, 1 Gbps, Poisson arrivals at a target fabric load (defined
// against the aggregate leaf-uplink capacity, the convention of the
// load-balancing literature the paper follows; all flows cross the
// fabric).
type largeEnv struct {
	topo      topology.Config
	sizes     spec.SizeDist
	flowCount int
}

func newLargeEnv(sizes spec.SizeDist, flowCount int) largeEnv {
	return largeEnv{
		topo: topology.Config{
			Leaves:       8,
			Spines:       8,
			HostsPerLeaf: 32,
			HostLink:     netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
			FabricLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			Queue:        netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
		},
		sizes:     sizes,
		flowCount: flowCount,
	}
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

// spec builds one scheme's scenario description (with its optional
// end-host replication) at one load point.
func (e largeEnv) spec(s Scheme, load float64, seed uint64) spec.Spec {
	sizes := e.sizes
	return spec.Spec{
		Version:  spec.Version,
		Name:     fmt.Sprintf("%s-load%.1f", s.label(), load),
		Seed:     seed,
		Scheme:   s.schemeSpec(),
		Topology: topoSpec(e.topo),
		Workload: spec.Workload{
			Kind:      "poisson",
			Flows:     e.flowCount,
			Load:      load,
			Sizes:     &sizes,
			Deadlines: paperDeadlines(),
		},
		Replication: s.Replication,
		Run: spec.Run{
			MaxTime:      spec.Dur(60 * units.Second),
			StopWhenDone: true,
		},
	}
}

func newRNG(seed uint64) *eventsim.RNG { return eventsim.NewRNG(seed) }
