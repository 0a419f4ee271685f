package spec

import (
	"cmp"
	"fmt"
	"strings"

	"tlb/internal/eventsim"
	"tlb/internal/faults"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// Env derives the scheme-builder environment of a run from its fabric:
// the equal-cost paths' rate, the base RTT and the queue parameters.
func Env(topo topology.Config) lb.Env {
	return lb.Env{
		FabricBandwidth: topo.FabricLink.Bandwidth,
		BaseRTT:         topo.BaseRTT(),
		QueueCapacity:   topo.Queue.Capacity,
		ECNThreshold:    topo.Queue.ECNThreshold,
	}
}

// checker accumulates validation problems with JSON-path-style
// locations so one pass reports everything wrong with a spec.
type checker struct {
	errs []string
}

func (c *checker) errf(path, format string, args ...any) {
	c.errs = append(c.errs, path+": "+fmt.Sprintf(format, args...))
}

func (c *checker) err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(c.errs, "\n"))
}

// addErr folds an already-located error (e.g. from lb.Build) into the
// accumulated list.
func (c *checker) addErr(err error) {
	if err != nil {
		c.errs = append(c.errs, strings.Split(err.Error(), "\n")...)
	}
}

// field is one spec field and whether the spec sets it.
type field struct {
	path string
	set  bool
}

// reject reports every set field as belonging to another kind, so a
// typo'd spec fails loudly instead of silently ignoring half its
// content.
func (c *checker) reject(what, kind string, fields ...field) {
	for _, f := range fields {
		if f.set {
			c.errf(f.path, "only applies to %s %q", what, kind)
		}
	}
}

// quantity parses one unit string; empty is the unset value 0. No
// quantity in a spec may be negative (units.Parse* accept a sign, and
// downstream a negative would silently turn into a default), so the
// sign is rejected here, once, for every duration, size and rate.
func quantity[T ~int64](c *checker, path, s string, parse func(string) (T, error)) T {
	if s == "" {
		return 0
	}
	v, err := parse(s)
	if err != nil {
		c.errf(path, "%v", err)
		return 0
	}
	if v < 0 {
		c.errf(path, "must not be negative, got %s", s)
		return 0
	}
	return v
}

func (c *checker) dur(path string, d Duration) units.Time {
	return quantity(c, path, string(d), units.ParseTime)
}

func (c *checker) size(path string, s Size) units.Bytes {
	return quantity(c, path, string(s), units.ParseBytes)
}

func (c *checker) rate(path string, r Rate) units.Bandwidth {
	return quantity(c, path, string(r), units.ParseBandwidth)
}

// count is the same sign check for the plain integer fields.
func (c *checker) count(path string, n int) int {
	if n < 0 {
		c.errf(path, "must not be negative, got %d", n)
		return 0
	}
	return n
}

// Validate checks the spec by compiling it and dropping the result; it
// reports every problem found, located by JSON path.
func (s *Spec) Validate() error {
	_, err := s.Compile()
	return err
}

// Compile validates the spec and lowers it to a runnable
// sim.Scenario, workload included.
func (s *Spec) Compile() (sim.Scenario, error) {
	c := &checker{}
	var sc sim.Scenario

	if s.Version != Version {
		c.errf("version", "unsupported spec version %d (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		c.errf("name", "must be set (it labels the run's results)")
	}
	sc.Name = s.Name
	sc.Seed = s.Seed

	topo := s.compileTopology(c)
	sc.Topology = topo

	sc.Transport = s.compileTransport(c)

	// Scheme, through the registry.
	if s.Scheme.Name == "" {
		c.errf("scheme.name", "must name a registered scheme (valid: %s)", strings.Join(lb.Names(), ", "))
	} else {
		f, err := lb.Build(s.Scheme.Name, s.Scheme.Params, "scheme.params", Env(topo))
		if err != nil {
			if _, known := lb.Lookup(s.Scheme.Name); !known {
				c.errf("scheme.name", "%v", err)
			} else {
				c.addErr(err)
			}
		} else {
			sc.Balancer = f
		}
	}
	sc.SchemeName = s.Scheme.Label
	if sc.SchemeName == "" {
		sc.SchemeName = s.Scheme.Name
	}

	// Workload.
	sc.FlowSourceNew = s.compileWorkload(c, topo)

	// Faults address leaf-spine pairs; a fat-tree has no notion of
	// them.
	if len(s.Faults) > 0 {
		if topo.K != 0 {
			c.errf("faults", "fault schedules address leaf-spine links and cannot apply to a fattree topology")
		}
		sc.Faults = s.compileFaults(c, topo)
	}

	sc.Replicate = s.Replicate

	// run.stopWhenDone is deprecated and ignored: every run ends at its
	// last completion.
	sc.MaxTime = c.dur("run.maxTime", s.Run.MaxTime)
	sc.Shards = c.count("run.shards", s.Run.Shards) // deprecated and ignored by the runner; bench/trace.go still reads it

	sc.TimeBucket = c.dur("outputs.timeBucket", s.Outputs.TimeBucket)
	if runLen := cmp.Or(sc.MaxTime, sim.DefaultMaxTime); sc.TimeBucket > 0 && runLen/sc.TimeBucket >= stats.MaxTimeBuckets {
		c.errf("outputs.timeBucket", "%s over a %s run is %d or more buckets, past the series' cap", s.Outputs.TimeBucket, runLen, stats.MaxTimeBuckets)
	}

	if err := c.err(); err != nil {
		return sim.Scenario{}, fmt.Errorf("spec %q invalid:\n%w", s.Name, err)
	}
	return sc, nil
}

// compileTopology lowers either kind to the one topology.Config. The
// kind strings are read here and nowhere else: everything downstream
// asks the Config (K != 0 is the fat-tree).
func (s *Spec) compileTopology(c *checker) topology.Config {
	t := s.Topology
	fatTree := false
	switch t.Kind {
	case "", "leafspine":
		c.reject("kind", "fattree", field{"topology.k", t.K != 0})
	case "fattree":
		fatTree = true
		c.reject("kind", "leafspine",
			field{"topology.leaves", t.Leaves != 0},
			field{"topology.spines", t.Spines != 0},
			field{"topology.hostsPerLeaf", t.HostsPerLeaf != 0},
			field{"topology.overrides", len(t.Overrides) != 0})
	default:
		c.errf("topology.kind", "unknown kind %q (valid: leafspine, fattree)", t.Kind)
		return topology.Config{}
	}
	cfg := topology.Config{
		HostLink:   s.compileLink(c, "topology.hostLink", t.HostLink),
		FabricLink: s.compileLink(c, "topology.fabricLink", t.FabricLink),
		Queue:      s.compileQueue(c),
	}
	if fatTree {
		cfg.K = t.K
		if t.K == 0 {
			// Config reads K == 0 as "a leaf-spine": report the missing
			// arity here, and go on with an odd one (this compile has
			// failed, so nothing will build it) so the rest of the spec
			// is still checked as a fat-tree's.
			c.errf("topology", "topology: fat-tree arity k must be even and >= 2, got 0")
			cfg.K = 1
			return cfg
		}
	} else {
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = t.Leaves, t.Spines, t.HostsPerLeaf
		for i, o := range t.Overrides {
			cfg.Overrides = append(cfg.Overrides, topology.LinkOverride{
				Leaf:  o.Leaf,
				Spine: o.Spine,
				Link:  s.compileLink(c, fmt.Sprintf("topology.overrides[%d].link", i), o.Link),
			})
		}
	}
	if err := cfg.Validate(); err != nil {
		c.errf("topology", "%v", err)
	}
	return cfg
}

func (s *Spec) compileQueue(c *checker) netem.QueueConfig {
	return netem.QueueConfig{
		Capacity:     c.count("topology.queue.capacity", s.Topology.Queue.Capacity),
		ECNThreshold: c.count("topology.queue.ecnThreshold", s.Topology.Queue.ECNThreshold),
	}
}

func (s *Spec) compileLink(c *checker, path string, l Link) netem.LinkConfig {
	cfg := netem.LinkConfig{
		Bandwidth: c.rate(path+".bandwidth", l.Bandwidth),
		Delay:     c.dur(path+".delay", l.Delay),
	}
	if l.Bandwidth == "" {
		c.errf(path+".bandwidth", "must be set")
	}
	return cfg
}

// compileTransport lowers the transport block onto the zero
// transport.Config, the paper's.
func (s *Spec) compileTransport(c *checker) transport.Config {
	var cfg transport.Config
	t := s.Transport
	if t == nil {
		return cfg
	}
	if t.MinRTO != nil {
		cfg.MinRTO = c.dur("transport.minRTO", *t.MinRTO)
	}
	if t.DCTCP != nil {
		cfg.NewReno = !*t.DCTCP
	}
	if t.DelayedAck != nil {
		cfg.DelayedAck = *t.DelayedAck
	}
	if t.SACK != nil {
		cfg.SACK = *t.SACK
	}
	return cfg
}

func (s *Spec) compileSizes(c *checker, path string, d *SizeDist) workload.SizeDist {
	if d == nil {
		c.errf(path, "must be set")
		return nil
	}
	var dist workload.SizeDist
	switch d.Kind {
	case "websearch":
		dist = workload.WebSearch()
	case "datamining":
		dist = workload.DataMining()
	case "uniform":
		u := workload.Uniform{
			MinSize: c.size(path+".min", d.Min),
			MaxSize: c.size(path+".max", d.Max),
		}
		if u.MaxSize < u.MinSize || u.MaxSize <= 0 {
			c.errf(path, "uniform needs 0 < min <= max, got [%v, %v]", d.Min, d.Max)
		}
		dist = u
	case "fixed":
		f := workload.Fixed{Size: c.size(path+".size", d.Size)}
		if f.Size <= 0 {
			c.errf(path+".size", "must be a positive size")
		}
		dist = f
	case "":
		c.errf(path+".kind", "must be set (valid: websearch, datamining, uniform, fixed)")
		return nil
	default:
		c.errf(path+".kind", "unknown kind %q (valid: websearch, datamining, uniform, fixed)", d.Kind)
		return nil
	}
	if d.Truncate != "" {
		max := c.size(path+".truncate", d.Truncate)
		if max <= 0 {
			c.errf(path+".truncate", "must be a positive size")
		}
		dist = workload.Truncated{Dist: dist, Max: max}
	}
	return dist
}

func (s *Spec) compileDeadlines(c *checker, path string, d *Deadlines) workload.DeadlineDist {
	if d == nil {
		return workload.DeadlineDist{}
	}
	dd := workload.DeadlineDist{
		Min:       c.dur(path+".min", d.Min),
		Max:       c.dur(path+".max", d.Max),
		OnlyBelow: c.size(path+".onlyBelow", d.OnlyBelow),
	}
	if dd.Max <= 0 || dd.Max < dd.Min {
		c.errf(path, "need 0 <= min <= max with max > 0, got [%v, %v]", d.Min, d.Max)
	}
	return dd
}

// compileWorkload lowers the workload to a replayable source factory:
// every call yields the identical sequence, so a compiled Scenario can
// be run more than once. Poisson and interpod flows are numbered by
// arrival, a mix's by generation order (workload.Arrivals). The
// factory is non-nil when the workload is valid.
func (s *Spec) compileWorkload(c *checker, topo topology.Config) func() workload.Source {
	w := s.Workload
	wseed := s.Seed + 1

	reject := func(kind string, fields ...field) { c.reject("workload kind", kind, fields...) }
	poissonFields := []field{
		{"workload.flows", w.Flows != 0},
		//simlint:allow floateq(set-check on a decoded JSON field; the unset value is exactly 0)
		{"workload.load", w.Load != 0},
		{"workload.sizes", w.Sizes != nil},
	}
	mixFields := []field{
		{"workload.groups", len(w.Groups) != 0},
	}
	interpodFields := []field{
		{"workload.interPod", w.InterPod != nil},
	}

	switch w.Kind {
	case "poisson":
		reject("mix", mixFields...)
		reject("interpod", interpodFields...)
		return s.compilePoisson(c, topo, wseed)
	case "mix":
		reject("poisson", poissonFields...)
		reject("interpod", interpodFields...)
		return s.compileMix(c, topo, wseed)
	case "interpod":
		reject("poisson", poissonFields...)
		reject("mix", mixFields...)
		if w.Deadlines != nil {
			c.errf("workload.deadlines", "only applies to workload kinds %q and %q (interpod reads workload.interPod.deadline*)", "poisson", "mix")
		}
		return s.compileInterPod(c, topo, wseed)
	case "":
		c.errf("workload.kind", "must be set (valid: poisson, mix, interpod)")
	default:
		c.errf("workload.kind", "unknown kind %q (valid: poisson, mix, interpod)", w.Kind)
	}
	return nil
}

func (s *Spec) compilePoisson(c *checker, topo topology.Config, wseed uint64) func() workload.Source {
	w := s.Workload
	if topo.K != 0 {
		c.errf("workload.kind", "poisson traffic needs a leafspine topology (load is defined against the leaf-spine fabric capacity)")
		return nil
	}
	if topo.Leaves < 2 {
		c.errf("topology.leaves", "poisson traffic is cross-leaf and needs at least 2 leaves, got %d", topo.Leaves)
	}
	if w.Flows <= 0 {
		c.errf("workload.flows", "must be a positive flow count")
	}
	if w.Load <= 0 || w.Load > 1 {
		c.errf("workload.load", "must be in (0,1], got %v", w.Load)
	}
	sizes := s.compileSizes(c, "workload.sizes", w.Sizes)
	deadlines := s.compileDeadlines(c, "workload.deadlines", w.Deadlines)
	if len(c.errs) > 0 {
		return nil
	}
	// Load is defined against the aggregate fabric capacity, exactly as
	// the large-scale experiments define it.
	fabricCapacity := float64(topo.Leaves) * float64(topo.Spines) * topo.FabricLink.Bandwidth.BytesPerSecond()
	pc := workload.PoissonConfig{
		Hosts:     topo.Hosts(),
		Sizes:     sizes,
		Rate:      w.Load * fabricCapacity / sizes.Mean(),
		Deadlines: deadlines,
		PerLeaf:   topo.HostsPerLeaf,
	}
	flows := w.Flows
	return s.sourceFactory(c, "workload", func() (workload.Source, error) {
		return pc.Source(eventsim.NewRNG(wseed), flows)
	})
}

func (s *Spec) compileMix(c *checker, topo topology.Config, wseed uint64) func() workload.Source {
	w := s.Workload
	if len(w.Groups) == 0 {
		c.errf("workload.groups", "mix needs at least one group")
		return nil
	}
	// Leaf 0's hosts send to leaf 1's hosts — the motivation/testbed
	// pattern.
	if topo.K != 0 || topo.Leaves < 2 {
		c.errf("workload.kind", "mix traffic runs from leaf 0's hosts to leaf 1's and needs a leafspine topology with >= 2 leaves")
	}
	var senders, receivers []int
	for h := 0; h < topo.HostsPerLeaf; h++ {
		senders = append(senders, h)
		receivers = append(receivers, topo.HostsPerLeaf+h)
	}

	deadlines := s.compileDeadlines(c, "workload.deadlines", w.Deadlines)
	mixes := make([]workload.StaticMix, 0, len(w.Groups))
	for i, g := range w.Groups {
		path := fmt.Sprintf("workload.groups[%d]", i)
		if g.Shorts < 0 || g.Longs < 0 || g.Shorts+g.Longs == 0 {
			c.errf(path, "needs a positive number of shorts and/or longs")
		}
		m := workload.StaticMix{
			ShortFlows:    g.Shorts,
			LongFlows:     g.Longs,
			Senders:       senders,
			Receivers:     receivers,
			ArrivalJitter: c.dur(path+".arrivalJitter", g.ArrivalJitter),
			Deadlines:     deadlines,
		}
		if g.Shorts > 0 {
			m.ShortSizes = s.compileSizes(c, path+".shortSizes", g.ShortSizes)
		}
		if g.Longs > 0 {
			m.LongSizes = s.compileSizes(c, path+".longSizes", g.LongSizes)
		}
		mixes = append(mixes, m)
	}
	if len(c.errs) > 0 {
		return nil
	}
	// One RNG shared across all groups in order: group boundaries do
	// not disturb the stream, so a single-group spec draws exactly the
	// same flows as the pre-spec experiment code did.
	rng := eventsim.NewRNG(wseed)
	var flows []workload.Flow
	for i, m := range mixes {
		fs, err := m.Generate(rng)
		if err != nil {
			c.errf(fmt.Sprintf("workload.groups[%d]", i), "%v", err)
			return nil
		}
		flows = append(flows, fs...)
	}
	replay, decorate := workload.Arrivals(flows), s.deadlineOverrideDecorator(c)
	return func() workload.Source { return decorate(replay()) }
}

func (s *Spec) compileInterPod(c *checker, topo topology.Config, wseed uint64) func() workload.Source {
	w := s.Workload
	if topo.K == 0 {
		c.errf("workload.kind", "interpod traffic needs a fattree topology")
		return nil
	}
	ip := w.InterPod
	if ip == nil {
		c.errf("workload.interPod", "must be set for kind %q", "interpod")
		return nil
	}
	if ip.Flows <= 0 {
		c.errf("workload.interPod.flows", "must be a positive flow count")
	}
	sizes := s.compileSizes(c, "workload.interPod.sizes", &ip.Sizes)
	maxGap := c.dur("workload.interPod.maxGap", ip.MaxGap)
	if maxGap <= 0 {
		c.errf("workload.interPod.maxGap", "must be a positive duration")
	}
	dlBase := c.dur("workload.interPod.deadlineBase", ip.DeadlineBase)
	dlJitter := c.dur("workload.interPod.deadlineJitter", ip.DeadlineJitter)
	dlBelow := c.size("workload.interPod.deadlineOnlyBelow", ip.DeadlineOnlyBelow)
	if dlJitter == 0 && (ip.DeadlineBase != "" || ip.DeadlineOnlyBelow != "") {
		c.errf("workload.interPod.deadlineJitter", "must be set with deadlineBase or deadlineOnlyBelow: without it no flow draws a deadline")
	}
	if len(c.errs) > 0 {
		return nil
	}
	hosts := topo.Hosts()
	ipc := workload.InterPodConfig{
		Hosts:  hosts,
		PerPod: hosts / topo.K,
		Flows:  ip.Flows,
		Sizes:  sizes,
		MaxGap: maxGap,
	}
	if dlJitter > 0 {
		// base + U[0, jitter) is the uniform draw on [base, base+jitter-1ns].
		ipc.Deadlines = workload.DeadlineDist{Min: dlBase, Max: dlBase + dlJitter - 1, OnlyBelow: dlBelow}
	}
	return s.sourceFactory(c, "workload.interPod", func() (workload.Source, error) {
		return ipc.Source(eventsim.NewRNG(wseed))
	})
}

// sourceFactory makes the replayable factory a Scenario carries out of
// build, which must draw from a fresh RNG on every call. build runs
// once here, so a configuration it rejects is a spec error at path, and
// once per call of the factory, yielding the identical sequence each
// time; the deadline override decorates every copy.
func (s *Spec) sourceFactory(c *checker, path string, build func() (workload.Source, error)) func() workload.Source {
	if _, err := build(); err != nil {
		c.errf(path, "%v", err)
		return nil
	}
	decorate := s.deadlineOverrideDecorator(c)
	return func() workload.Source {
		src, err := build()
		if err != nil {
			panic(fmt.Sprintf("spec: validated %s source failed to rebuild: %v", path, err))
		}
		return decorate(src)
	}
}

// deadlineOverrideDecorator validates workload.deadlineOverride once
// against the checker and returns it as a pure decorator: it rewrites
// each flow's deadline after that flow's draws, so overriding deadlines
// never perturbs arrival times or sizes. The returned function is
// checker-free so source factories can call it long after compilation.
func (s *Spec) deadlineOverrideDecorator(c *checker) func(workload.Source) workload.Source {
	o := s.Workload.DeadlineOverride
	if o == nil {
		return func(src workload.Source) workload.Source { return src }
	}
	d := c.dur("workload.deadlineOverride.deadline", o.Deadline)
	if d <= 0 {
		c.errf("workload.deadlineOverride.deadline", "must be a positive duration")
		return func(src workload.Source) workload.Source { return src }
	}
	return func(src workload.Source) workload.Source {
		return workload.OverrideDeadlines(src, d, sim.ShortThreshold)
	}
}

var faultOps = []struct {
	name string
	op   faults.Op
}{
	{"down", faults.OpDown},
	{"restore", faults.OpRestore},
}

// compileFaults lowers the schedule, checking each event's link against
// the leaf-spine topology (a fat-tree is rejected by the caller).
func (s *Spec) compileFaults(c *checker, topo topology.Config) faults.Schedule {
	sched := make(faults.Schedule, 0, len(s.Faults))
	for i, f := range s.Faults {
		path := fmt.Sprintf("faults[%d]", i)
		e := faults.Event{
			At:    c.dur(path+".at", f.At),
			Leaf:  f.Leaf,
			Spine: f.Spine,
		}
		if topo.K == 0 {
			if f.Leaf < 0 || f.Leaf >= topo.Leaves {
				c.errf(path+".leaf", "leaf %d out of range [0, %d)", f.Leaf, topo.Leaves)
			}
			if f.Spine < 0 || f.Spine >= topo.Spines {
				c.errf(path+".spine", "spine %d out of range [0, %d)", f.Spine, topo.Spines)
			}
		}
		opOK := false
		for _, o := range faultOps {
			if o.name == f.Op {
				e.Op, opOK = o.op, true
				break
			}
		}
		if !opOK {
			c.errf(path+".op", "unknown op %q (valid: down, restore)", f.Op)
		}
		sched = append(sched, e)
	}
	return sched
}
