package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/faults"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/trace"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// xorshift is a tiny deterministic generator for randomized
// differential tests — no global rand state, reproducible per seed.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// randomFlows builds a mixed workload with both intra- and cross-shard
// traffic over the given host count.
func randomFlows(seed uint64, hosts, n int) []workload.Flow {
	x := xorshift(seed*2654435761 + 1)
	flows := make([]workload.Flow, 0, n)
	var start units.Time
	for i := 0; i < n; i++ {
		src := x.intn(hosts)
		dst := x.intn(hosts)
		if dst == src {
			dst = (src + 1 + x.intn(hosts-1)) % hosts
		}
		size := units.Bytes(2000 + x.intn(300_000))
		flows = append(flows, workload.Flow{Src: src, Dst: dst, Size: size, Start: start})
		start += units.Time(x.intn(200)) * units.Microsecond
	}
	return flows
}

// runShardPair runs the scenario single-engine and with the given
// shard count.
func runShardPair(t *testing.T, sc Scenario, shards int) (single, sharded *Result) {
	t.Helper()
	sc.Shards = 1
	single, err := Run(sc)
	if err != nil {
		t.Fatalf("single-engine run: %v", err)
	}
	sc.Shards = shards
	sharded, err = Run(sc)
	if err != nil {
		t.Fatalf("sharded run (%d): %v", shards, err)
	}
	return single, sharded
}

// assertFlowsEqual compares the per-flow records field for field.
func assertFlowsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if *a.Flows[i] != *b.Flows[i] {
			t.Fatalf("flow %d records differ:\nsingle:  %+v\nsharded: %+v", i, *a.Flows[i], *b.Flows[i])
		}
	}
}

// assertSeriesEqual compares a time series bucket for bucket.
func assertSeriesEqual(t *testing.T, name string, a, b *stats.TimeSeries) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", name)
	}
	if a == nil {
		return
	}
	if !reflect.DeepEqual(a.Sums(), b.Sums()) || !reflect.DeepEqual(a.Means(), b.Means()) {
		t.Fatalf("%s: series differ", name)
	}
	an, as := a.Overflow()
	bn, bs := b.Overflow()
	if an != bn || as != bs {
		t.Fatalf("%s: overflow differs: (%d,%g) vs (%d,%g)", name, an, as, bn, bs)
	}
}

// assertResultsExact demands full byte-identity: flows, counters, port
// snapshots, samples and series. Valid for MaxTime-bounded runs, where
// every shard executes exactly the events the single engine would.
func assertResultsExact(t *testing.T, a, b *Result) {
	t.Helper()
	assertFlowsEqual(t, a, b)
	if a.EndTime != b.EndTime {
		t.Fatalf("EndTime differs: %v vs %v", a.EndTime, b.EndTime)
	}
	if a.Drops != b.Drops || a.FaultDrops != b.FaultDrops {
		t.Fatalf("drops differ: (%d,%d) vs (%d,%d)", a.Drops, a.FaultDrops, b.Drops, b.FaultDrops)
	}
	if len(a.Uplinks) != len(b.Uplinks) {
		t.Fatalf("uplink counts differ: %d vs %d", len(a.Uplinks), len(b.Uplinks))
	}
	for i := range a.Uplinks {
		if a.Uplinks[i] != b.Uplinks[i] {
			t.Fatalf("uplink %d differs:\nsingle:  %+v\nsharded: %+v", i, a.Uplinks[i], b.Uplinks[i])
		}
	}
	if !reflect.DeepEqual(a.ShortSamples, b.ShortSamples) {
		t.Fatalf("short samples differ: %d vs %d records", len(a.ShortSamples), len(b.ShortSamples))
	}
	assertSeriesEqual(t, "ShortQueueDelayUs", a.ShortQueueDelayUs, b.ShortQueueDelayUs)
	assertSeriesEqual(t, "ShortOOORatio", a.ShortOOORatio, b.ShortOOORatio)
	assertSeriesEqual(t, "LongOOORatio", a.LongOOORatio, b.LongOOORatio)
	assertSeriesEqual(t, "ShortGoodputBytes", a.ShortGoodputBytes, b.ShortGoodputBytes)
	assertSeriesEqual(t, "LongGoodputBytes", a.LongGoodputBytes, b.LongGoodputBytes)
}

// TestShardedExactLeafSpine is the randomized differential test:
// MaxTime-bounded runs on the small leaf-spine fabric must be fully
// byte-identical at every shard count, across seeds and schemes.
func TestShardedExactLeafSpine(t *testing.T) {
	schemes := []struct {
		name string
		f    func() lb.Factory
	}{
		{"ecmp", lb.ECMP},
		{"rps", lb.RPS},
	}
	for _, scheme := range schemes {
		for seed := uint64(1); seed <= 3; seed++ {
			scheme, seed := scheme, seed
			t.Run(fmt.Sprintf("%s-seed%d", scheme.name, seed), func(t *testing.T) {
				t.Parallel()
				sc := Scenario{
					Name:               "shard-exact",
					Topology:           smallTopo(),
					Transport:          transport.DefaultConfig(),
					Balancer:           scheme.f(),
					SchemeName:         scheme.name,
					Seed:               seed,
					Flows:              randomFlows(seed, 8, 30),
					MaxTime:            20 * units.Millisecond,
					SampleShortPackets: true,
					CollectTimeSeries:  true,
				}
				for _, n := range []int{2, 4} {
					single, sharded := runShardPair(t, sc, n)
					assertResultsExact(t, single, sharded)
				}
			})
		}
	}
}

// TestShardedExactFatTree runs the randomized differential on a k=4
// fat-tree — 4 pods, real 4-way sharding, agg<->core boundaries —
// across seeds and schemes. The per-packet-randomized schemes (rps,
// presto) are the sensitive ones: a single event ordered differently
// anywhere rotates a leaf's RNG draw stream and diverges the whole
// run, which is how the finite-latency teardown rule was pinned down.
func TestShardedExactFatTree(t *testing.T) {
	ftCfg := topology.FatTreeConfig{
		K:          4,
		HostLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:      netem.QueueConfig{Capacity: 128, ECNThreshold: 20},
	}
	schemes := []struct {
		name string
		f    func() lb.Factory
	}{
		{"ecmp", lb.ECMP},
		{"rps", lb.RPS},
		{"presto", func() lb.Factory { return lb.Presto(64 * units.KB) }},
	}
	for _, scheme := range schemes {
		for seed := uint64(1); seed <= 3; seed++ {
			scheme, seed := scheme, seed
			t.Run(fmt.Sprintf("%s-seed%d", scheme.name, seed), func(t *testing.T) {
				t.Parallel()
				sc := Scenario{
					Name:       "shard-fattree",
					Transport:  transport.DefaultConfig(),
					Balancer:   scheme.f(),
					SchemeName: scheme.name,
					Seed:       seed,
					Flows:      randomFlows(seed+100, 16, 40),
					MaxTime:    15 * units.Millisecond,
					BuildNetwork: func(s *eventsim.Sim, f lb.Factory, rng *eventsim.RNG, deliver topology.DeliverFunc) (topology.Network, error) {
						return topology.NewFatTree(s, ftCfg, f, rng, deliver)
					},
				}
				for _, n := range []int{2, 4} {
					single, sharded := runShardPair(t, sc, n)
					assertResultsExact(t, single, sharded)
				}
			})
		}
	}
}

// TestShardedExactWithFaults exercises the per-shard ownership-split
// fault install: flap and de-rate events on boundary and non-boundary
// links, MaxTime-bounded for full identity.
func TestShardedExactWithFaults(t *testing.T) {
	t.Parallel()
	sched := faults.Flap(0, 0, 2*units.Millisecond, units.Millisecond, 500*units.Microsecond, 3)
	sched = append(sched, faults.DeRate(units.Millisecond, 1, 2, units.Gbps/2))
	sc := Scenario{
		Name:       "shard-faults",
		Topology:   smallTopo(),
		Transport:  transport.DefaultConfig(),
		Balancer:   lb.ECMP(),
		SchemeName: "ecmp",
		Seed:       9,
		Flows:      randomFlows(9, 8, 30),
		MaxTime:    20 * units.Millisecond,
		Faults:     sched,
	}
	single, sharded := runShardPair(t, sc, 2)
	assertResultsExact(t, single, sharded)
}

// TestShardedStopWhenDone checks the stop protocol: flow records and
// the end time (the last completion) must match the single engine.
// Port counters may legitimately drift in the final window (shards
// finish it; the single engine stops mid-window), so they are not
// compared here — the MaxTime tests pin them.
func TestShardedStopWhenDone(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 3; seed++ {
		sc := Scenario{
			Name:         "shard-stop",
			Topology:     smallTopo(),
			Transport:    transport.DefaultConfig(),
			Balancer:     lb.RPS(),
			SchemeName:   "rps",
			Seed:         seed,
			Flows:        randomFlows(seed+7, 8, 25),
			StopWhenDone: true,
			MaxTime:      5 * units.Second,
		}
		single, sharded := runShardPair(t, sc, 2)
		assertFlowsEqual(t, single, sharded)
		if single.EndTime != sharded.EndTime {
			t.Fatalf("seed %d: EndTime differs: %v vs %v", seed, single.EndTime, sharded.EndTime)
		}
		for i := range single.Flows {
			if !single.Flows[i].Done {
				t.Fatalf("seed %d: flow %d unfinished in a StopWhenDone run", seed, i)
			}
		}
	}
}

// TestShardedStreamStats checks the streaming aggregates: counters and
// sketch-backed percentiles merge exactly; the Welford mean folds in a
// different order across shard counts, so it is compared within a
// float-rounding tolerance.
func TestShardedStreamStats(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name:        "shard-stream",
		Topology:    smallTopo(),
		Transport:   transport.DefaultConfig(),
		Balancer:    lb.ECMP(),
		SchemeName:  "ecmp",
		Seed:        4,
		Flows:       randomFlows(4, 8, 40),
		MaxTime:     20 * units.Millisecond,
		StreamStats: true,
	}
	single, sharded := runShardPair(t, sc, 2)
	for c := range single.Stream.Classes {
		a, b := &single.Stream.Classes[c], &sharded.Stream.Classes[c]
		if a.Count != b.Count || a.Completed != b.Completed ||
			a.DeadlineTotal != b.DeadlineTotal || a.DeadlineMissed != b.DeadlineMissed ||
			a.BytesAcked != b.BytesAcked || a.Retransmits != b.Retransmits ||
			a.Timeouts != b.Timeouts || a.PacketsRecv != b.PacketsRecv ||
			a.OutOfOrder != b.OutOfOrder || a.DupAcksSent != b.DupAcksSent ||
			a.SumQueueDelay != b.SumQueueDelay || a.DelaySamples != b.DelaySamples ||
			a.GoodputN != b.GoodputN {
			t.Fatalf("class %d counters differ:\nsingle:  %+v\nsharded: %+v", c, a, b)
		}
		if d := math.Abs(a.GoodputSum - b.GoodputSum); d > 1e-6*math.Abs(a.GoodputSum)+1e-9 {
			t.Fatalf("class %d GoodputSum differs: %g vs %g", c, a.GoodputSum, b.GoodputSum)
		}
	}
	for _, cl := range []Class{AllFlows, ShortFlows, LongFlows} {
		af, bf := single.AFCT(cl), sharded.AFCT(cl)
		if d := math.Abs(float64(af - bf)); d > 1e-6*math.Abs(float64(af)) {
			t.Fatalf("class %v AFCT differs: %v vs %v", cl, af, bf)
		}
	}
}

// TestShardedLazySource checks the FlowSourceNew path: every shard
// pumps its own copy of the source, and the result matches the single
// engine consuming one copy.
func TestShardedLazySource(t *testing.T) {
	t.Parallel()
	mkSource := func() workload.Source {
		return workload.NewSliceSource(randomFlows(12, 8, 35))
	}
	sc := Scenario{
		Name:          "shard-lazy",
		Topology:      smallTopo(),
		Transport:     transport.DefaultConfig(),
		Balancer:      lb.ECMP(),
		SchemeName:    "ecmp",
		Seed:          12,
		FlowSourceNew: mkSource,
		MaxTime:       20 * units.Millisecond,
	}
	single, sharded := runShardPair(t, sc, 2)
	assertResultsExact(t, single, sharded)
}

// TestShardedRejections pins the clear-error contract for scenario
// knobs that cannot shard.
func TestShardedRejections(t *testing.T) {
	t.Parallel()
	base := Scenario{
		Name:       "shard-reject",
		Topology:   smallTopo(),
		Transport:  transport.DefaultConfig(),
		Balancer:   lb.ECMP(),
		SchemeName: "ecmp",
		Seed:       1,
		Flows:      randomFlows(1, 8, 4),
		MaxTime:    units.Millisecond,
		Shards:     2,
	}
	rep := base
	rep.Replication = &ReplicationConfig{Threshold: 100 * units.KB, Copies: 2}
	if _, err := Run(rep); err == nil {
		t.Fatal("Replication under Shards > 1 did not error")
	}
	traced := base
	traced.Tracer = trace.New(16)
	if _, err := Run(traced); err == nil {
		t.Fatal("Tracer under Shards > 1 did not error")
	}
}

// TestShardedClampFallsBack checks that a shard count above the
// topology's parallelism clamps (2 leaves -> 2 shards) and that a
// single-shard clamp falls back to the plain path.
func TestShardedClampFallsBack(t *testing.T) {
	t.Parallel()
	topo := smallTopo()
	topo.Leaves = 1
	topo.Spines = 2
	sc := Scenario{
		Name:       "shard-clamp",
		Topology:   topo,
		Transport:  transport.DefaultConfig(),
		Balancer:   lb.ECMP(),
		SchemeName: "ecmp",
		Seed:       1,
		Flows: []workload.Flow{
			{Src: 0, Dst: 1, Size: 10 * units.KB, Start: 0},
		},
		StopWhenDone: true,
		MaxTime:      units.Second,
		Shards:       8,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("clamped run: %v", err)
	}
	if got := res.CompletedCount(AllFlows); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
}
