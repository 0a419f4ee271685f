package spec

import (
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"tlb/internal/core"
	"tlb/internal/eventsim"
	"tlb/internal/faults"
	"tlb/internal/sim"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// testTopology is a small leaf-spine fabric shared by the tests.
func testTopology() Topology {
	return Topology{
		Leaves:       2,
		Spines:       4,
		HostsPerLeaf: 4,
		HostLink:     Link{Bandwidth: "1Gbps", Delay: "5us"},
		FabricLink:   Link{Bandwidth: "1Gbps", Delay: "10us"},
		Queue:        Queue{Capacity: 256, ECNThreshold: 65},
	}
}

// fatTreeTopology is the k-ary fat-tree on testTopology's links.
func fatTreeTopology(k int) Topology {
	t := testTopology()
	t.Kind, t.K = "fattree", k
	t.Leaves, t.Spines, t.HostsPerLeaf = 0, 0, 0
	return t
}

func testSpec() *Spec {
	return &Spec{
		Version:  Version,
		Name:     "test",
		Seed:     42,
		Scheme:   Scheme{Name: "ecmp"},
		Topology: testTopology(),
		Workload: Workload{
			Kind: "mix",
			Groups: []MixGroup{{
				Shorts:        10,
				Longs:         2,
				ShortSizes:    &SizeDist{Kind: "uniform", Min: "40KB", Max: "100KB"},
				LongSizes:     &SizeDist{Kind: "fixed", Size: "10MB"},
				ArrivalJitter: "5ms",
			}},
			Deadlines: &Deadlines{Min: "5ms", Max: "25ms", OnlyBelow: "100KB"},
		},
		Run: Run{MaxTime: "30s"},
	}
}

// testSpecMix is testSpec's mix group as the workload package draws it.
func testSpecMix() workload.StaticMix {
	return workload.StaticMix{
		ShortFlows:    10,
		LongFlows:     2,
		ShortSizes:    workload.Uniform{MinSize: 40 * units.KB, MaxSize: 100 * units.KB},
		LongSizes:     workload.Fixed{Size: 10 * units.MB},
		Senders:       []int{0, 1, 2, 3},
		Receivers:     []int{4, 5, 6, 7},
		ArrivalJitter: 5 * units.Millisecond,
		Deadlines: workload.DeadlineDist{
			Min: 5 * units.Millisecond, Max: 25 * units.Millisecond,
			OnlyBelow: 100 * units.KB,
		},
	}
}

func TestCompileMixMatchesStaticMix(t *testing.T) {
	sc, err := testSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	// The same mix drawn directly, with the repo's seed+1 convention.
	want, err := testSpecMix().Generate(eventsim.NewRNG(43))
	if err != nil {
		t.Fatal(err)
	}
	got := workload.Collect(sc.FlowSourceNew())
	if !reflect.DeepEqual(got, workload.Collect(workload.Arrivals(want)())) {
		t.Fatalf("spec mix diverges from direct StaticMix generation:\n got %v\nwant %v",
			got[:3], want[:3])
	}
	if sc.SchemeName != "ecmp" || sc.Name != "test" {
		t.Errorf("names: scheme %q scenario %q", sc.SchemeName, sc.Name)
	}
	if sc.MaxTime != 30*units.Second {
		t.Errorf("run block not applied: MaxTime %v", sc.MaxTime)
	}
}

// A compiled mix numbers its flows by generation order across its
// groups — longs then shorts, group after group, one RNG — and yields
// them in stable (Start, Index) order: these indices are the FlowIDs
// the mix goldens rest on.
func TestCompiledMixIndexIsGenerationPosition(t *testing.T) {
	s := testSpec()
	s.Workload.Groups = append(s.Workload.Groups, MixGroup{
		Shorts: 6, Longs: 1,
		ShortSizes:    &SizeDist{Kind: "fixed", Size: "20KB"},
		LongSizes:     &SizeDist{Kind: "fixed", Size: "5MB"},
		ArrivalJitter: "1ms",
	})
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	second := testSpecMix()
	second.ShortFlows, second.LongFlows = 6, 1
	second.ShortSizes, second.LongSizes = workload.Fixed{Size: 20 * units.KB}, workload.Fixed{Size: 5 * units.MB}
	second.ArrivalJitter = units.Millisecond
	rng := eventsim.NewRNG(s.Seed + 1)
	var gen []workload.Flow
	for _, m := range []workload.StaticMix{testSpecMix(), second} {
		fs, err := m.Generate(rng)
		if err != nil {
			t.Fatal(err)
		}
		gen = append(gen, fs...)
	}
	got := workload.Collect(sc.FlowSourceNew())
	if len(got) != len(gen) || len(gen) != 19 {
		t.Fatalf("compiled mix yields %d flows, generation %d, want 19", len(got), len(gen))
	}
	seen := make([]bool, len(gen))
	for k, f := range got {
		want := gen[f.Index]
		want.Index = f.Index
		if f != want {
			t.Fatalf("flow %d with Index %d is %+v, generation position %d is %+v", k, f.Index, f, f.Index, gen[f.Index])
		}
		seen[f.Index] = true
		if k > 0 {
			if p := got[k-1]; p.Start > f.Start || (p.Start == f.Start && p.Index > f.Index) {
				t.Fatalf("flows %d and %d are out of (Start, Index) order: %+v then %+v", k-1, k, p, f)
			}
		}
	}
	if slices.Contains(seen, false) {
		t.Fatalf("indices are not a permutation of generation positions: %v", seen)
	}
}

func TestCompilePoissonMatchesPoissonConfig(t *testing.T) {
	s := testSpec()
	s.Workload = Workload{
		Kind:      "poisson",
		Flows:     50,
		Load:      0.5,
		Sizes:     &SizeDist{Kind: "websearch", Truncate: "20MB"},
		Deadlines: &Deadlines{Min: "5ms", Max: "25ms", OnlyBelow: "100KB"},
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sizes := workload.Truncated{Dist: workload.WebSearch(), Max: 20 * units.MB}
	fabricCapacity := float64(2) * float64(4) * units.Gbps.BytesPerSecond()
	src, err := workload.PoissonConfig{
		Hosts: 8,
		Sizes: sizes,
		Rate:  0.5 * fabricCapacity / sizes.Mean(),
		Deadlines: workload.DeadlineDist{
			Min: 5 * units.Millisecond, Max: 25 * units.Millisecond,
			OnlyBelow: 100 * units.KB,
		},
		PerLeaf: 4,
	}.Source(eventsim.NewRNG(43), 50)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Collect(src)
	if got := workload.Collect(sc.FlowSourceNew()); !reflect.DeepEqual(got, want) {
		t.Fatal("spec poisson diverges from direct PoissonConfig generation")
	}
}

func TestCompileInterPodMatchesLoop(t *testing.T) {
	s := testSpec()
	s.Topology = fatTreeTopology(4)
	s.Workload = Workload{
		Kind: "interpod",
		InterPod: &InterPod{
			Flows:             40,
			Sizes:             SizeDist{Kind: "websearch", Truncate: "20MB"},
			MaxGap:            "200us",
			DeadlineBase:      "5ms",
			DeadlineJitter:    "20ms",
			DeadlineOnlyBelow: "100KB",
		},
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// One topology value: the tree is in sc.Topology, where it can be
	// read back, and the wrapping seam is left to whoever wraps.
	if sc.Topology.K != 4 || sc.BuildNetwork != nil {
		t.Fatalf("fattree spec compiled to Topology.K %d, BuildNetwork set %v", sc.Topology.K, sc.BuildNetwork != nil)
	}
	// The exact fat-tree flow loop from the experiments.
	rng := eventsim.NewRNG(43)
	sizes := workload.Truncated{Dist: workload.WebSearch(), Max: 20 * units.MB}
	hosts, perPod := 16, 4
	var want []workload.Flow
	at := units.Time(0)
	for i := 0; i < 40; i++ {
		at += units.Time(rng.Intn(int(200 * units.Microsecond)))
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts)
		for dst/perPod == src/perPod {
			dst = rng.Intn(hosts)
		}
		size := sizes.Sample(rng)
		f := workload.Flow{Src: src, Dst: dst, Size: size, Start: at, Index: i}
		if size <= 100*units.KB {
			f.Deadline = at + 5*units.Millisecond + units.Time(rng.Intn(int(20*units.Millisecond)))
		}
		want = append(want, f)
	}
	if got := workload.Collect(sc.FlowSourceNew()); !reflect.DeepEqual(got, want) {
		t.Fatal("spec interpod diverges from the experiments' fat-tree loop")
	}
}

func TestValidateAggregatesErrors(t *testing.T) {
	s := testSpec()
	s.Version = 99
	s.Scheme = Scheme{Name: "letflow", Params: Params{"gap": "10lightyears", "nope": 1}}
	s.Workload.Kind = "poisson"
	s.Workload.Load = 1.5
	s.Workload.Sizes = &SizeDist{Kind: "uniform", Min: "100KB", Max: "40KB"}
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		"version",
		"scheme.params.gap",
		"scheme.params.nope",
		"workload.load: must be in (0,1], got 1.5",
		"workload.sizes",
		"workload.groups", // mix fields rejected under kind poisson
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregate error missing %q:\n%s", want, msg)
		}
	}
}

func TestValidateUnknownScheme(t *testing.T) {
	s := testSpec()
	s.Scheme = Scheme{Name: "bogus"}
	err := s.Validate()
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "tlb") || !strings.Contains(err.Error(), "ecmp") {
		t.Errorf("unknown-scheme error should list registered schemes: %v", err)
	}
}

func TestCompileFaults(t *testing.T) {
	s := testSpec()
	s.Faults = []Fault{
		{At: "2500ms", Leaf: 0, Spine: 2, Op: "down"},
		{At: "5500ms", Leaf: 1, Spine: 3, Op: "restore"},
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Schedule{
		{At: 2500 * units.Millisecond, Spine: 2, Op: faults.OpDown},
		{At: 5500 * units.Millisecond, Leaf: 1, Spine: 3, Op: faults.OpRestore},
	}
	if !reflect.DeepEqual(sc.Faults, want) {
		t.Fatalf("faults compiled to %+v, want %+v", sc.Faults, want)
	}
}

func TestFaultsRejectedOnFatTree(t *testing.T) {
	s := testSpec()
	s.Topology = Topology{
		Kind:       "fattree",
		K:          4,
		HostLink:   Link{Bandwidth: "1Gbps", Delay: "5us"},
		FabricLink: Link{Bandwidth: "1Gbps", Delay: "10us"},
		Queue:      Queue{Capacity: 256},
	}
	s.Workload = Workload{
		Kind:     "interpod",
		InterPod: &InterPod{Flows: 10, Sizes: SizeDist{Kind: "fixed", Size: "1MB"}, MaxGap: "100us"},
	}
	s.Faults = []Fault{{At: "1s", Op: "down"}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "faults") {
		t.Fatalf("fattree+faults should be rejected, got %v", err)
	}
}

// TestOversizedFabricRejected: a fabric with more ports and hosts than
// the engine has keyed identities used to validate, then panic in
// netem.NewPort (k=90) or ask for gigabytes of host slots (k=2000) at
// build time; it fails validation at topology, naming count and limit.
func TestOversizedFabricRejected(t *testing.T) {
	fat := func(k int) *Spec {
		s := testSpec()
		s.Topology = Topology{
			Kind:       "fattree",
			K:          k,
			HostLink:   Link{Bandwidth: "1Gbps", Delay: "5us"},
			FabricLink: Link{Bandwidth: "1Gbps", Delay: "10us"},
			Queue:      Queue{Capacity: 256},
		}
		s.Workload = Workload{
			Kind:     "interpod",
			InterPod: &InterPod{Flows: 10, Sizes: SizeDist{Kind: "fixed", Size: "1MB"}, MaxGap: "100us"},
		}
		return s
	}
	wide := testSpec() // a leaf-spine with k=90's port count
	wide.Topology.Leaves, wide.Topology.Spines = 1100, 480
	for _, s := range []*Spec{fat(90), fat(2000), wide} {
		err := s.Validate()
		if err == nil {
			t.Errorf("%+v: accepted", s.Topology)
			continue
		}
		located := false
		for _, line := range strings.Split(err.Error(), "\n") {
			located = located || strings.HasPrefix(line, "topology: ") &&
				strings.Contains(line, "keyed identities, limit 1048576")
		}
		if !located {
			t.Errorf("%+v: no size error at topology:\n%v", s.Topology, err)
		}
	}
}

// TestSilentlyIgnoredInputRejected: input that used to validate and
// then be dropped or replaced by a default downstream — a negative
// quantity or count, workload.deadlines on an interpod workload, an
// interpod deadline base or bound without a jitter, a time bucket past
// the series' cap, one topology kind's fields under the other — or
// that validated and then hung (cross-leaf poisson traffic on one leaf
// never finds a pair) or failed deep in the run without a path (a mix
// host on both sides can be paired with itself) fails validation at
// its JSON path. So does a scheme parameter outside its declared
// range, and one the scheme no longer has.
func TestSilentlyIgnoredInputRejected(t *testing.T) {
	dur := func(v Duration) *Duration { return &v }
	interpod := func(s *Spec) {
		s.Topology = Topology{
			Kind:       "fattree",
			K:          4,
			HostLink:   Link{Bandwidth: "1Gbps", Delay: "5us"},
			FabricLink: Link{Bandwidth: "1Gbps", Delay: "10us"},
			Queue:      Queue{Capacity: 256},
		}
		s.Workload = Workload{
			Kind:     "interpod",
			InterPod: &InterPod{Flows: 10, Sizes: SizeDist{Kind: "fixed", Size: "1MB"}, MaxGap: "100us"},
		}
	}
	scheme := func(name, param string, v any) func(*Spec) {
		return func(s *Spec) { s.Scheme = Scheme{Name: name, Params: Params{param: v}} }
	}
	for _, tc := range []struct {
		path string
		mut  func(*Spec)
	}{
		{"scheme.params.gap", scheme("letflow", "gap", "-5us")},
		{"scheme.params.interval", scheme("tlb", "interval", "0us")},
		{"scheme.params.deadline", scheme("tlb", "deadline", "-3ms")},
		{"scheme.params.meanShortSize", scheme("tlb", "meanShortSize", "0B")},
		{"scheme.params.shortThreshold", scheme("tlb", "shortThreshold", "-100KB")},
		{"scheme.params.shortHysteresis", scheme("tlb", "shortHysteresis", -1)},
		{"scheme.params.fixedQTh", scheme("tlb", "fixedQTh", -2)},
		{"scheme.params.maxQTh", scheme("tlb", "maxQTh", 0)},
		{"scheme.params.d", scheme("drill", "d", -3)},
		{"run.maxTime", func(s *Spec) { s.Run.MaxTime = "-1s" }},
		{"run.shards", func(s *Spec) { s.Run.Shards = -1 }},
		{"outputs.timeBucket", func(s *Spec) { s.Outputs.TimeBucket = "-5ms" }},
		{"transport.minRTO", func(s *Spec) { s.Transport = &Transport{MinRTO: dur("-1ms")} }},
		{"topology.queue.capacity", func(s *Spec) { s.Topology.Queue.Capacity = -1 }},
		{"topology.queue.ecnThreshold", func(s *Spec) { s.Topology.Queue.ECNThreshold = -1 }},
		{"topology.fabricLink.delay", func(s *Spec) { s.Topology.FabricLink.Delay = "-10us" }},
		{"topology.hostLink.bandwidth", func(s *Spec) { s.Topology.HostLink.Bandwidth = "-1Gbps" }},
		{"workload.groups[0].arrivalJitter", func(s *Spec) { s.Workload.Groups[0].ArrivalJitter = "-1ms" }},
		{"workload.deadlines.min", func(s *Spec) { s.Workload.Deadlines.Min = "-5ms" }},
		{"faults[0].at", func(s *Spec) { s.Faults = []Fault{{At: "-1s", Op: "down"}} }},
		{"faults[1].leaf", func(s *Spec) { s.Faults = []Fault{{Op: "down"}, {Leaf: 2, Op: "restore"}} }},
		{"faults[0].spine", func(s *Spec) { s.Faults = []Fault{{Spine: 4, Op: "down"}} }},
		{"workload.interPod.deadlineBase", func(s *Spec) {
			interpod(s)
			s.Workload.InterPod.DeadlineBase = "-5ms"
		}},
		{"workload.interPod.deadlineJitter", func(s *Spec) {
			interpod(s)
			s.Workload.InterPod.DeadlineJitter = "-20ms"
		}},
		// Without a jitter no flow draws a deadline, so a base or a
		// size bound alone would be dropped.
		{"workload.interPod.deadlineJitter", func(s *Spec) {
			interpod(s)
			s.Workload.InterPod.DeadlineBase = "5ms"
		}},
		{"workload.interPod.deadlineJitter", func(s *Spec) {
			interpod(s)
			s.Workload.InterPod.DeadlineOnlyBelow = "100KB"
		}},
		// A bucket that cuts the run into 2^20 or more would drop the
		// samples past the series' cap.
		{"outputs.timeBucket", func(s *Spec) { s.Outputs.TimeBucket = "1us" }},
		{"outputs.timeBucket", func(s *Spec) {
			s.Run.MaxTime = ""
			s.Outputs.TimeBucket = "50us"
		}},
		{"workload.deadlines", func(s *Spec) {
			interpod(s)
			s.Workload.Deadlines = &Deadlines{Min: "5ms", Max: "25ms"}
		}},
		{"topology.kind", func(s *Spec) { s.Topology.Kind = "torus" }},
		{"topology.k", func(s *Spec) { s.Topology.K = 4 }},
		{"topology", func(s *Spec) { // a fattree without k
			interpod(s)
			s.Topology.K = 0
		}},
		{"topology.leaves", func(s *Spec) {
			interpod(s)
			s.Topology.Leaves = 2
		}},
		{"topology.overrides", func(s *Spec) {
			interpod(s)
			s.Topology.Overrides = []Override{{Link: s.Topology.FabricLink}}
		}},
		{"topology.leaves", func(s *Spec) {
			s.Topology.Leaves = 1
			s.Workload = Workload{Kind: "poisson", Flows: 10, Load: 0.5, Sizes: &SizeDist{Kind: "fixed", Size: "50KB"}}
		}},
		// A mix runs from leaf 0's hosts to leaf 1's: no fat-tree, no
		// single leaf.
		{"workload.kind", func(s *Spec) { s.Topology = fatTreeTopology(4) }},
		{"workload.kind", func(s *Spec) { s.Topology.Leaves = 1 }},
	} {
		s := testSpec()
		tc.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.path)
			continue
		}
		located := false
		for _, line := range strings.Split(err.Error(), "\n") {
			located = located || strings.HasPrefix(line, tc.path+": ")
		}
		if !located {
			t.Errorf("%s: no error at that path:\n%v", tc.path, err)
		}
	}
	// A fattree without k is still checked as a fat-tree: the missing
	// arity is the only complaint, not "interpod needs a fattree" too.
	s := testSpec()
	interpod(s)
	s.Topology.K = 0
	want := "spec \"test\" invalid:\ntopology: topology: fat-tree arity k must be even and >= 2, got 0"
	if err := s.Validate(); err == nil || err.Error() != want {
		t.Errorf("fattree without k: %v", err)
	}
}

// TestTLBModelsTheRunsTransport: the segment size, header size and W_L
// TLB's queueing model reads are the transport's constants, the ones
// every run's endpoints use, so nothing a spec's transport block
// chooses can make scheme and endpoints disagree on them: TLB builds
// the same model with or without it.
func TestTLBModelsTheRunsTransport(t *testing.T) {
	built := func(tr *Transport) *core.TLB {
		t.Helper()
		s := testSpec()
		s.Scheme = Scheme{Name: "tlb"}
		s.Transport = tr
		sc, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return sc.Balancer(eventsim.New(), eventsim.NewRNG(1), nil).(*core.TLB)
	}
	rto, on, off := Duration("50ms"), true, false
	want := built(nil).Model()
	for _, tr := range []*Transport{
		{MinRTO: &rto},
		{DCTCP: &off, SACK: &on, DelayedAck: &on},
	} {
		if got := built(tr).Model(); got != want {
			t.Errorf("transport %+v: model %+v, want the default transport's %+v", tr, got, want)
		}
	}
}

// TestZeroTransportIsTheSpecDefault: the zero transport.Config is the
// paper's transport — a run of it gives the same Result as the spec
// without a transport block and as the spec that states the defaults.
func TestZeroTransportIsTheSpecDefault(t *testing.T) {
	rto, on, off := Duration("10ms"), true, false
	stated := &Transport{MinRTO: &rto, DCTCP: &on, DelayedAck: &off, SACK: &off}
	var want *sim.Result
	for _, tr := range []*Transport{nil, stated} {
		s := testSpec()
		s.Workload.Groups[0].LongSizes = &SizeDist{Kind: "fixed", Size: "1MB"}
		s.Transport = tr
		sc, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.Transport = transport.Config{}
		zero, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(compiled, zero) {
			t.Errorf("transport %+v: the compiled run differs from the zero transport.Config's", tr)
		}
		if want == nil {
			want = zero
		} else if !reflect.DeepEqual(zero, want) {
			t.Errorf("transport %+v: the run differs from the spec without a transport block", tr)
		}
	}
	if want.CompletedCount(sim.AllFlows) == 0 {
		t.Fatal("the runs completed no flows")
	}
}

// TestRemovedSettingsRejected: every setting that left the format — the
// transport constants, the fixed workload seed, a mix's host lists,
// the one result classification threshold, the fault ops and fields
// beyond down and restore on both directions, the series switch (a
// time bucket is the switch), RepFlow's copies and threshold, a mix
// group's own deadlines and the deadline override's size bound — is
// an error naming it, so an old spec never runs silently as a
// different scenario.
func TestRemovedSettingsRejected(t *testing.T) {
	s := testSpec()
	s.Faults = []Fault{{At: "1ms", Op: "down"}}
	base, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ from, to, name string }{
		{`"minRTO"`, `"mss": "9000B", "minRTO"`, "mss"},
		{`"minRTO"`, `"headerBytes": "60B", "minRTO"`, "headerBytes"},
		{`"minRTO"`, `"initCwnd": 10, "minRTO"`, "initCwnd"},
		{`"minRTO"`, `"rcvWindow": "128KiB", "minRTO"`, "rcvWindow"},
		{`"minRTO"`, `"maxRTO": "2s", "minRTO"`, "maxRTO"},
		{`"minRTO"`, `"initialRTO": "10ms", "minRTO"`, "initialRTO"},
		{`"minRTO"`, `"dupAckThreshold": 100, "minRTO"`, "dupAckThreshold"},
		{`"minRTO"`, `"dctcpGain": 0.5, "minRTO"`, "dctcpGain"},
		{`"minRTO"`, `"handshake": false, "minRTO"`, "handshake"},
		{`"minRTO"`, `"delayedAckTimeout": "200us", "minRTO"`, "delayedAckTimeout"},
		{`"kind": "mix"`, `"kind": "mix", "seed": 7`, "seed"},
		{`"kind": "mix"`, `"kind": "mix", "senders": [0, 1]`, "senders"},
		{`"maxTime"`, `"shortThreshold": "50KB", "maxTime"`, "shortThreshold"},
		{`"op": "down"`, `"op": "down", "dir": "leafToSpine"`, "dir"},
		{`"op": "down"`, `"op": "down", "bandwidth": "5Mbps"`, "bandwidth"},
		{`"op": "down"`, `"op": "down", "delay": "1ms"`, "delay"},
		{`"outputs": {}`, `"outputs": {"collectTimeSeries": true, "timeBucket": "1ms"}`, "collectTimeSeries"},
		{`"run"`, `"replication": {"threshold": "100KB", "copies": 2}, "run"`, "replication"},
		{`"arrivalJitter"`, `"deadlines": {"min": "5ms", "max": "25ms"}, "arrivalJitter"`, "deadlines"},
		{`"kind": "mix"`, `"kind": "mix", "deadlineOverride": {"deadline": "10ms", "onlyBelow": "100KB"}`, "onlyBelow"},
	} {
		data := strings.Replace(string(base), `"workload"`, `"transport": {"minRTO": "10ms"}, "workload"`, 1)
		data = strings.Replace(data, tc.from, tc.to, 1)
		if _, err := LoadBytes([]byte(data)); err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.name+`"`) {
			t.Errorf("%s: load error %v, want one naming the field", tc.name, err)
		}
	}
	for _, op := range []string{"delay", "derate"} {
		data := strings.Replace(string(base), `"op": "down"`, `"op": "`+op+`"`, 1)
		back, err := LoadBytes([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := back.Validate(); err == nil || !strings.Contains(err.Error(), `faults[0].op: unknown op "`+op+`"`) {
			t.Errorf("op %s: validation error %v, want one at faults[0].op", op, err)
		}
	}
}

// TestShardsAcceptedAndIgnored pins the compatibility shims the
// benchmark's workloads lean on: run.shards — with or without
// replication, which the sharded runner used to reject — and
// run.stopWhenDone validate, compile and run to the same Result (every
// field, hence every accessor) as the spec without them; a negative
// count still fails at its JSON path.
func TestShardsAcceptedAndIgnored(t *testing.T) {
	small := func() *Spec {
		s := testSpec()
		s.Workload.Groups[0].LongSizes = &SizeDist{Kind: "fixed", Size: "1MB"}
		return s
	}
	run := func(s *Spec) *sim.Result {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		sc, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, repl := range []bool{false, true} {
		plain, sharded := small(), small()
		plain.Replicate, sharded.Replicate = repl, repl
		sharded.Run.Shards, sharded.Run.StopWhenDone = 2, true
		want, got := run(plain), run(sharded)
		if want.CompletedCount(sim.AllFlows) == 0 {
			t.Fatal("reference run completed no flows")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replication %v: run.shards 2 and run.stopWhenDone changed the Result", repl)
		}
	}
	s := small()
	s.Run.Shards = -1
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "run.shards") {
		t.Fatalf("negative shards should be rejected at run.shards, got %v", err)
	}
}

func TestMarshalLoadRoundTrip(t *testing.T) {
	s := testSpec()
	s.Scheme = Scheme{
		Name:   "tlb",
		Params: Params{"interval": "500us", "deadline": "10ms", "meanShortSize": "70KB"},
	}
	tr, on := Duration("50ms"), true
	s.Transport = &Transport{MinRTO: &tr, SACK: &on}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the spec:\n%s", data)
	}
	// And marshalling again is byte-identical (sorted params).
	data2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("second marshal differs from the first")
	}
	sc1, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(workload.Collect(sc1.FlowSourceNew()), workload.Collect(sc2.FlowSourceNew())) {
		t.Fatal("round-tripped spec compiles to different flows")
	}
	if sc1.Transport != sc2.Transport {
		t.Fatal("round-tripped spec compiles to different transport")
	}
	if sc1.Transport.MinRTO != 50*units.Millisecond {
		t.Fatalf("transport override lost: MinRTO %v", sc1.Transport.MinRTO)
	}
}

// TestShardsRoundTrip pins the deprecated run.shards field: it
// survives marshal/load, compiles into Scenario.Shards, and a negative
// count is rejected at compile time.
func TestShardsRoundTrip(t *testing.T) {
	s := testSpec()
	s.Run.Shards = 4
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Run.Shards != 4 {
		t.Fatalf("shards lost in round trip: %d", back.Run.Shards)
	}
	sc, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Shards != 4 {
		t.Fatalf("compile dropped shards: %d", sc.Shards)
	}
	// Zero (the default) must stay off the JSON so old specs re-marshal
	// unchanged.
	s.Run.Shards = 0
	if data, err = s.Marshal(); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(data), "shards") {
		t.Fatalf("zero shards serialized:\n%s", data)
	}
	s.Run.Shards = -1
	if _, err := s.Compile(); err == nil {
		t.Fatal("negative shards accepted")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := LoadBytes([]byte(`{"version": 1, "nmae": "typo"}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

// Every workload kind compiles to a replayable source factory that
// applies the spec's deadline override.
func TestCompileProducesReplayableSource(t *testing.T) {
	poisson := testSpec()
	poisson.Workload = Workload{
		Kind:             "poisson",
		Flows:            50,
		Load:             0.5,
		Sizes:            &SizeDist{Kind: "websearch", Truncate: "20MB"},
		Deadlines:        &Deadlines{Min: "5ms", Max: "25ms", OnlyBelow: "100KB"},
		DeadlineOverride: &DeadlineOverride{Deadline: "10ms"},
	}
	interpod := testSpec()
	interpod.Topology = fatTreeTopology(4)
	interpod.Workload = Workload{
		Kind: "interpod",
		InterPod: &InterPod{
			Flows:             40,
			Sizes:             SizeDist{Kind: "websearch", Truncate: "20MB"},
			MaxGap:            "200us",
			DeadlineBase:      "5ms",
			DeadlineJitter:    "20ms",
			DeadlineOnlyBelow: "100KB",
		},
	}
	for _, tc := range []struct {
		s     *Spec
		flows int
	}{{poisson, 50}, {interpod, 40}, {testSpec(), 12}} {
		s, kind := tc.s, tc.s.Workload.Kind
		sc, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		want := workload.Collect(sc.FlowSourceNew())
		if len(want) != tc.flows {
			t.Fatalf("%s: source yields %d flows, want %d", kind, len(want), tc.flows)
		}
		for _, f := range want {
			if s.Workload.DeadlineOverride != nil && f.Size <= 100*units.KB && f.Deadline != f.Start+10*units.Millisecond {
				t.Fatalf("%s: deadline override not applied to the source: %+v", kind, f)
			}
		}
		if got := workload.Collect(sc.FlowSourceNew()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: factory is not replayable", kind)
		}
	}
}

// Replication no longer needs a slice: a replicated poisson spec
// compiles to a source like any other and runs, each flow counted once.
func TestReplicatedPoissonCompilesToSourceAndRuns(t *testing.T) {
	s := testSpec()
	s.Workload = Workload{
		Kind:  "poisson",
		Flows: 30,
		Load:  0.3,
		Sizes: &SizeDist{Kind: "uniform", Min: "10KB", Max: "200KB"},
	}
	s.Replicate = true
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Replicate {
		t.Fatal("replication not carried into the scenario")
	}
	res, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CompletedCount(sim.AllFlows); got != 30 || res.Count(sim.AllFlows) != 30 {
		t.Fatalf("%d of %d flows completed, want 30 of 30", got, res.Count(sim.AllFlows))
	}
}

// TestCapabilityMatrix: every feature on every topology either runs to
// completion or is rejected by Validate with nothing but located
// errors — never a panic, never an error from inside the run. Faults on
// a fat-tree (its links are not (leaf, spine) pairs) is the one
// rejection; a cell that changes side changes this table. The
// deprecated outputs.streamStats loads and changes nothing: its cell's
// Result equals its twin's without it.
func TestCapabilityMatrix(t *testing.T) {
	topologies := []struct {
		name  string
		apply func(*Spec)
	}{
		{"leafspine", func(*Spec) {}},
		{"fattree", func(s *Spec) {
			s.Topology = fatTreeTopology(4)
			s.Workload = Workload{Kind: "interpod", InterPod: &InterPod{
				Flows:  60,
				Sizes:  SizeDist{Kind: "uniform", Min: "10KB", Max: "400KB"},
				MaxGap: "100us",
			}}
		}},
	}
	features := []struct {
		name  string
		apply func(*Spec)
	}{
		{"faults", func(s *Spec) {
			s.Faults = []Fault{{At: "1ms", Leaf: 0, Spine: 1, Op: "down"}, {At: "4ms", Leaf: 0, Spine: 1, Op: "restore"}}
		}},
		{"replication", func(s *Spec) { s.Replicate = true }},
		{"streamStats", func(s *Spec) { s.Outputs.StreamStats = true }},
		// Every run samples short-flow packets into the queue-length
		// histogram, so "samples" needs no field.
		{"series+samples", func(s *Spec) { s.Outputs.TimeBucket = "1ms" }},
		{"replication+series+samples", func(s *Spec) {
			s.Replicate = true
			s.Outputs = Outputs{TimeBucket: "1ms"}
		}},
	}
	located := regexp.MustCompile(`^[a-z][A-Za-z]*(\[[0-9]+\])?(\.[a-z][A-Za-z]*(\[[0-9]+\])?)*: `)
	for _, topo := range topologies {
		for _, feat := range features {
			t.Run(feat.name+"/"+topo.name, func(t *testing.T) {
				s := testSpec()
				topo.apply(s)
				feat.apply(s)
				wantRejected := feat.name == "faults" && topo.name == "fattree"
				if err := s.Validate(); err != nil {
					lines := strings.Split(err.Error(), "\n")
					for _, line := range lines[1:] { // lines[0] names the spec
						if !located.MatchString(line) {
							t.Errorf("rejection line without a JSON path: %q", line)
						}
					}
					if !wantRejected {
						t.Errorf("rejected, but this cell is expected to run:\n%v", err)
					}
					return
				}
				if wantRejected {
					t.Fatal("validated, but this cell is expected to be rejected")
				}
				sc, err := s.Compile()
				if err != nil {
					t.Fatalf("validated but did not compile: %v", err)
				}
				flows := len(workload.Collect(sc.FlowSourceNew()))
				res, err := sim.Run(sc)
				if err != nil {
					t.Fatalf("validated, then failed in the run: %v", err)
				}
				if got := res.CompletedCount(sim.AllFlows); got != flows || flows == 0 || flows > 200 {
					t.Errorf("%d of %d flows completed", got, flows)
				}
				if s.Outputs.StreamStats {
					data, err := s.Marshal()
					if err != nil {
						t.Fatal(err)
					}
					if back, err := LoadBytes(data); err != nil || !back.Outputs.StreamStats {
						t.Fatalf("outputs.streamStats does not load back: %v\n%s", err, data)
					}
					s.Outputs.StreamStats = false
					sc, err := s.Compile()
					if err != nil {
						t.Fatal(err)
					}
					without, err := sim.Run(sc)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, without) {
						t.Error("outputs.streamStats changed the Result")
					}
				}
			})
		}
	}
}
