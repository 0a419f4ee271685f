package sim

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tlb/internal/eventsim"
	"tlb/internal/faults"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// TestFabricConservation: every payload byte injected is either
// acknowledged or the run saw drops; with no drops, acked == size for
// every flow, across random workloads and schemes.
func TestFabricConservationProperty(t *testing.T) {
	schemes := []lb.Factory{lb.ECMP(), lb.RPS(), lb.LetFlow(lb.LetFlowGap), lb.Presto()}
	f := func(seed uint64, schemeIdx uint8, n uint8) bool {
		topo := smallTopo()
		rngFlows := []workload.Flow{}
		count := int(n%20) + 3
		s := int(seed % 100000)
		for i := 0; i < count; i++ {
			rngFlows = append(rngFlows, workload.Flow{
				Src: i % 4, Dst: 4 + (i+s)%4,
				Size:  units.Bytes(1000 + (s+i*7919)%200000),
				Start: units.Time(i) * 37 * units.Microsecond,
			})
		}
		sc := Scenario{
			Name:       "conservation-prop",
			Topology:   topo,
			Balancer:   schemes[int(schemeIdx)%len(schemes)],
			SchemeName: "prop", Seed: seed,
			FlowSourceNew: workload.Arrivals(rngFlows), MaxTime: 30 * units.Second,
		}
		_, recs, err := runWatched(sc)
		if err != nil || len(recs) != count {
			return false
		}
		for _, fs := range recs {
			if !fs.Done {
				return false // all must finish within 30s at this scale
			}
			if fs.BytesAcked != fs.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestAsymmetricFabricEndToEnd drives traffic over a fabric with one
// degraded link and checks delivery still works plus the override is
// effective (flows crossing the slow link take visibly longer).
func TestAsymmetricFabricEndToEnd(t *testing.T) {
	topo := smallTopo()
	topo.Spines = 2
	slow := topo.FabricLink
	slow.Delay += 2 * units.Millisecond
	topo.Overrides = []topology.LinkOverride{{Leaf: 0, Spine: 1, Link: slow}}

	sc := Scenario{
		Name: "asym", Topology: topo,
		// ECMP hashes flows onto both spines, so some cross the slow link.
		Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: 21,
		FlowSourceNew: workload.Arrivals([]workload.Flow{
			{Src: 0, Dst: 4, Size: 30 * units.KB, Start: 0},
			{Src: 1, Dst: 5, Size: 30 * units.KB, Start: 0},
			{Src: 2, Dst: 6, Size: 30 * units.KB, Start: 0},
			{Src: 3, Dst: 7, Size: 30 * units.KB, Start: 0},
		}),
		MaxTime: 10 * units.Second,
	}
	_, recs, err := runWatched(sc)
	if err != nil {
		t.Fatal(err)
	}
	var fast, slowCount int
	for _, fs := range recs {
		if !fs.Done {
			t.Fatalf("flow %v unfinished", fs.ID)
		}
		if fs.FCT() > 4*units.Millisecond {
			slowCount++ // several RTTs over the +2ms link
		} else {
			fast++
		}
	}
	if fast == 0 || slowCount == 0 {
		t.Fatalf("expected a mix of fast and slow flows, got %d fast / %d slow", fast, slowCount)
	}
}

// TestTLBAvoidsDegradedLink: under TLB the same scenario should route
// everything around the slow path (queues empty, delay visible).
func TestTLBAvoidsDegradedLink(t *testing.T) {
	topo := smallTopo()
	slow := topo.FabricLink
	slow.Delay += 2 * units.Millisecond
	topo.Overrides = []topology.LinkOverride{{Leaf: 0, Spine: 3, Link: slow}}

	flows := []workload.Flow{}
	for i := 0; i < 12; i++ {
		flows = append(flows, workload.Flow{
			Src: i % 4, Dst: 4 + i%4, Size: 50 * units.KB,
			Start: units.Time(i) * 100 * units.Microsecond,
		})
	}
	res, err := Run(Scenario{
		Name: "tlb-asym", Topology: topo,
		Balancer: tlbFactory(tlbEnv(topo, topo.BaseRTT())), SchemeName: "tlb", Seed: 33,
		FlowSourceNew: workload.Arrivals(flows), MaxTime: 10 * units.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount(AllFlows) != len(flows) {
		t.Fatal("not all flows completed")
	}
	// The slow uplink (leaf0 -> spine3) should have carried almost
	// nothing: with 3 healthy paths its 2ms handicap never wins.
	for _, p := range res.Uplinks {
		if p.Label == "leaf0->spine3" && p.Queue.Enqueued > int64(len(flows)) {
			t.Fatalf("degraded uplink carried %d packets", p.Queue.Enqueued)
		}
	}
}

// seriesSum is the sum of a series' bucket sums.
func seriesSum(ts *stats.TimeSeries) float64 {
	var total float64
	for _, p := range ts.Sums() {
		total += p.Y
	}
	return total
}

// TestSampledShortPackets: the per-packet outputs conserve the flow
// counters. The queue-length histogram counts exactly the short class's
// received data packets and the out-of-order series exactly each
// class's out-of-order arrivals, since the receiver stops adding to
// both at the same freeze.
func TestSampledShortPackets(t *testing.T) {
	res, err := Run(Scenario{
		Name: "samples", Topology: smallTopo(),
		Balancer: lb.RPS(), SchemeName: "rps", Seed: 4,
		FlowSourceNew: workload.Arrivals(arrivalOrderFlows()[:100]),
		TimeBucket:    units.Millisecond,
		MaxTime:       10 * units.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	short, long := res.Stream.Agg(ShortFlows), res.Stream.Agg(LongFlows)
	if short.OutOfOrder == 0 || long.OutOfOrder == 0 {
		t.Fatalf("test wants reordering in both classes: %d short, %d long", short.OutOfOrder, long.OutOfOrder)
	}
	if n := res.ShortQueueLen.N(); n != short.PacketsRecv {
		t.Errorf("queue-length histogram counts %d packets, the short class received %d", n, short.PacketsRecv)
	}
	if got := seriesSum(res.ShortOOORatio); got != float64(short.OutOfOrder) {
		t.Errorf("short out-of-order series sums to %v, the short class counted %d", got, short.OutOfOrder)
	}
	if got := seriesSum(res.LongOOORatio); got != float64(long.OutOfOrder) {
		t.Errorf("long out-of-order series sums to %v, the long class counted %d", got, long.OutOfOrder)
	}
}

// TestTimeSeriesCollection verifies the Fig. 8/9 series path: each
// class's goodput series sums to its bytes, and the short flow's FCT
// lands in its start-time bucket.
func TestTimeSeriesCollection(t *testing.T) {
	flows := []workload.Flow{
		{Src: 0, Dst: 4, Size: 80 * units.KB, Start: 0},
		{Src: 1, Dst: 5, Size: units.MB, Start: 0},
	}
	res, err := Run(Scenario{
		Name: "series", Topology: smallTopo(),
		Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: 6,
		FlowSourceNew: workload.Arrivals(flows),
		TimeBucket:    500 * units.Microsecond,
		MaxTime:       10 * units.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pts := res.ShortQueueDelayUs.Means(); len(pts) == 0 {
		t.Fatal("no short queue-delay series")
	}
	if total := seriesSum(res.LongGoodputBytes); total != float64(units.MB) {
		t.Fatalf("long goodput series sums to %.0f bytes, want %d", total, units.MB)
	}
	if total := seriesSum(res.ShortGoodputBytes); total != float64(80*units.KB) {
		t.Fatalf("short goodput series sums to %.0f bytes, want %d", total, 80*units.KB)
	}
	if pts, fct := res.ShortFCTByStart.Sums(), res.AFCT(ShortFlows); len(pts) != 1 || pts[0].Y != float64(fct) {
		t.Fatalf("FCT by start: %v, want the short flow's %v in the first bucket", pts, fct)
	}
}

// TestReplicatedCopiesAreSampled: every copy of a replicated flow
// crosses the fabric, so every copy's receiver feeds the short-flow
// histogram and series, while goodput counts each flow's bytes once.
func TestReplicatedCopiesAreSampled(t *testing.T) {
	flows := arrivalOrderFlows()
	res, err := Run(Scenario{
		Name: "replicated-samples", Topology: smallTopo(),
		Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: 3,
		FlowSourceNew: workload.Arrivals(flows), Replicate: true,
		TimeBucket: units.Millisecond,
		MaxTime:    5 * units.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount(AllFlows) != len(flows) {
		t.Fatalf("%d of %d flows completed", res.CompletedCount(AllFlows), len(flows))
	}
	if len(res.ShortQueueDelayUs.Means()) == 0 || len(res.ShortOOORatio.Means()) == 0 {
		t.Error("replicated short flows left the short-flow series empty")
	}
	// The copies' packets are counted, the winners' records hold one
	// copy's each.
	if n, won := res.ShortQueueLen.N(), res.Stream.Agg(ShortFlows).PacketsRecv; n <= won {
		t.Errorf("queue-length histogram counts %d packets, the winning copies alone received %d", n, won)
	}
	var short, long units.Bytes
	for _, f := range flows {
		if f.Size <= ShortThreshold {
			short += f.Size
		} else {
			long += f.Size
		}
	}
	if got := seriesSum(res.ShortGoodputBytes); got != float64(short) {
		t.Errorf("short goodput series sums to %.0f bytes, want each flow once: %d", got, short)
	}
	if got := seriesSum(res.LongGoodputBytes); got != float64(long) {
		t.Errorf("long goodput series sums to %.0f bytes, want %d", got, long)
	}
}

// TestBufferPressureCausesDropsAndRecovery injects a burst far beyond
// buffer capacity and checks the fabric drops, TCP retransmits, and
// every flow still completes — the failure-injection path.
func TestBufferPressureCausesDropsAndRecovery(t *testing.T) {
	topo := smallTopo()
	topo.Spines = 1                              // single path: no balancing escape
	topo.Queue = netem.QueueConfig{Capacity: 16} // tiny buffers, no ECN
	flows := []workload.Flow{}
	for i := 0; i < 8; i++ {
		flows = append(flows, workload.Flow{
			Src: i % 4, Dst: 4 + i%4, Size: 300 * units.KB, Start: 0,
		})
	}
	sc := Scenario{
		Name: "pressure", Topology: topo,
		Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: 8,
		FlowSourceNew: workload.Arrivals(flows), MaxTime: 30 * units.Second,
	}
	res, recs, err := runWatched(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("expected drops under 8x oversubscription into 16-packet buffers")
	}
	if res.TotalRetransmits(AllFlows) == 0 {
		t.Fatal("drops but no retransmissions")
	}
	if got := res.CompletedCount(AllFlows); got != len(flows) {
		t.Fatalf("only %d of %d flows completed despite retransmission", got, len(flows))
	}
	if len(recs) != len(flows) {
		t.Fatalf("%d records folded for %d flows", len(recs), len(flows))
	}
	for _, fs := range recs {
		if fs.BytesAcked != fs.Size {
			t.Fatalf("flow %v acked %d of %d", fs.ID, fs.BytesAcked, fs.Size)
		}
	}
}

// TestResultClassAccessors pins the Result reduction helpers.
func TestResultClassAccessors(t *testing.T) {
	res, err := Run(Scenario{
		Name: "classes", Topology: smallTopo(),
		Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: 10,
		FlowSourceNew: workload.Arrivals([]workload.Flow{
			{Src: 0, Dst: 4, Size: 10 * units.KB, Start: 0, Deadline: 50 * units.Millisecond},
			{Src: 1, Dst: 5, Size: 20 * units.KB, Start: 0, Deadline: units.Microsecond}, // impossible
			{Src: 2, Dst: 6, Size: 5 * units.MB, Start: 0},
		}),
		MaxTime: 30 * units.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count(ShortFlows) != 2 || res.Count(LongFlows) != 1 || res.Count(AllFlows) != 3 {
		t.Fatalf("class counts: %d/%d/%d", res.Count(ShortFlows), res.Count(LongFlows), res.Count(AllFlows))
	}
	if miss := res.DeadlineMissRatio(ShortFlows); miss != 0.5 {
		t.Fatalf("miss ratio %v, want 0.5 (one impossible deadline of two)", miss)
	}
	if res.AFCT(ShortFlows) <= 0 || res.AFCT(LongFlows) <= 0 {
		t.Fatal("zero AFCT")
	}
	if res.FCTPercentile(ShortFlows, 99) < res.FCTPercentile(ShortFlows, 1) {
		t.Fatal("percentiles not monotone")
	}
	if res.UplinkUtilization() <= 0 {
		t.Fatal("zero uplink utilization")
	}
	if res.Goodput(AllFlows) <= 0 || res.Stream.Agg(AllFlows).BytesAcked <= 0 {
		t.Fatal("zero goodput")
	}
}

// TestFatTreeEndToEnd runs a full workload over the 3-tier substrate:
// both decision tiers (edge and agg) are
// exercised for every scheme, including TLB.
func TestFatTreeEndToEnd(t *testing.T) {
	schemes := []struct {
		name string
		f    lb.Factory
	}{
		{"ecmp", lb.ECMP()},
		{"letflow", lb.LetFlow(lb.LetFlowGap)},
		{"tlb", tlbFactory(tlbEnv(smallFatTree(4), 100*units.Microsecond))},
	}
	for _, s := range schemes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			flows := []workload.Flow{}
			for i := 0; i < 24; i++ {
				// Inter-pod pairs: pod i%4 -> pod (i+1)%4.
				flows = append(flows, workload.Flow{
					Src: (i % 4) * 4, Dst: ((i+1)%4)*4 + i%4,
					Size:  units.Bytes(5000 + i*3000),
					Start: units.Time(i) * 30 * units.Microsecond,
				})
			}
			flows = append(flows, workload.Flow{Src: 1, Dst: 13, Size: units.MB, Start: 0})
			res, err := Run(Scenario{
				Name:          "fattree-" + s.name,
				Topology:      smallFatTree(4),
				Balancer:      s.f,
				SchemeName:    s.name,
				Seed:          17,
				FlowSourceNew: workload.Arrivals(flows),
				MaxTime:       10 * units.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.CompletedCount(AllFlows), len(flows); got != want {
				t.Fatalf("completed %d of %d", got, want)
			}
			// Both tiers' ports appear in the snapshots.
			sawEdge, sawAgg := false, false
			for _, p := range res.Uplinks {
				if strings.HasPrefix(p.Label, "edge") {
					sawEdge = true
				}
				if strings.HasPrefix(p.Label, "agg") {
					sawAgg = true
				}
			}
			if !sawEdge || !sawAgg {
				t.Fatal("balanced-port snapshots missing a tier")
			}
		})
	}
}

// TestFaultsOnFatTreeRejected: a hand-built fat-tree scenario is a
// *topology.Fabric like the leaf-spine, so what rejects its (leaf,
// spine) fault schedule is LinkPorts, through faults.Install — an error
// naming the scenario, not a panic, and not a fault landing on the
// edge<->agg pair that happens to carry the same indices.
func TestFaultsOnFatTreeRejected(t *testing.T) {
	res, err := Run(Scenario{
		Name:          "faulted-fattree",
		Topology:      smallFatTree(4),
		Balancer:      lb.ECMP(),
		SchemeName:    "ecmp",
		FlowSourceNew: workload.Arrivals([]workload.Flow{{Src: 0, Dst: 12, Size: 100 * units.KB}}),
		Faults:        faults.Schedule{{At: 0, Leaf: 0, Spine: 0, Op: faults.OpDown}},
		MaxTime:       units.Second,
	})
	if err == nil {
		t.Fatalf("faulted fat-tree ran: %d fault drops", res.FaultDrops)
	}
	for _, want := range []string{`scenario "faulted-fattree"`, "(leaf, spine)", "3-tier"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// wrappedNet is the shape of the one thing BuildNetwork is for (what
// bench/trace.go's tracedNet is): a Network embedding the fabric it
// instruments and nothing else — the run derives its teardown lag from
// Scenario.Topology, so every close event is the unwrapped run's.
type wrappedNet struct {
	topology.Network
	injected int
}

func (w *wrappedNet) Inject(host int, pkt *netem.Packet) {
	w.injected++
	w.Network.Inject(host, pkt)
}

// TestBuildNetworkWrapsFabric pins the wrapping seam where tier-1 sees
// it (nothing in-tree but bench/ uses it): on both shapes a wrapper
// around topology.New(sc.Topology) yields the unwrapped run's Result
// exactly, and a fault schedule over it is an error, since a wrapper
// has no links to resolve.
func TestBuildNetworkWrapsFabric(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo topology.Config
	}{
		{"leafspine", smallTopo()},
		{"fattree", smallFatTree(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			last := tc.topo.Hosts() - 1
			var flows []workload.Flow
			for i := 0; i < 30; i++ {
				flows = append(flows, workload.Flow{
					Src: i % 4, Dst: last - i%3,
					Size:  units.Bytes(4000 + i*9000),
					Start: units.Time(i) * 20 * units.Microsecond,
				})
			}
			sc := Scenario{
				Name: "seam", Topology: tc.topo,
				Balancer: lb.RPS(), SchemeName: "rps", Seed: 5,
				FlowSourceNew: workload.Arrivals(flows), MaxTime: 10 * units.Second,
			}
			plain, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			var w *wrappedNet
			sc.BuildNetwork = func(s *eventsim.Sim, f lb.Factory, rng *eventsim.RNG, deliver topology.DeliverFunc) (topology.Network, error) {
				fab, err := topology.New(s, tc.topo, f, rng, deliver)
				w = &wrappedNet{Network: fab}
				return w, err
			}
			wrapped, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if w.injected == 0 {
				t.Fatal("the run did not go through the wrapper")
			}
			if plain.CompletedCount(AllFlows) != len(flows) || !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("wrapped run differs from the unwrapped one (%d/%d flows completed)",
					plain.CompletedCount(AllFlows), len(flows))
			}
			sc.Faults = faults.Schedule{{At: 0, Leaf: 0, Spine: 0, Op: faults.OpDown}}
			if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "needs a *topology.Fabric") {
				t.Errorf("fault schedule over a wrapped network: %v", err)
			}
		})
	}
}

// TestRunSweepMatchesSerialRuns checks the concurrent sweep runner:
// same results as serial runs, order preserved.
func TestRunSweepMatchesSerialRuns(t *testing.T) {
	mk := func(seed uint64) Scenario {
		return Scenario{
			Name: "sweep", Topology: smallTopo(),
			Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: seed,
			FlowSourceNew: workload.Arrivals([]workload.Flow{
				{Src: 0, Dst: 4, Size: 50 * units.KB, Start: 0},
				{Src: 1, Dst: 5, Size: 80 * units.KB, Start: 0},
			}),
			MaxTime: 10 * units.Second,
		}
	}
	scenarios := []Scenario{mk(1), mk(2), mk(3), mk(4)}
	parallel, err := RunSweep(scenarios, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scenarios {
		serial, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if parallel[i].EndTime != serial.EndTime {
			t.Fatalf("scenario %d differs parallel vs serial", i)
		}
	}
}

// TestIncastScenario runs the partition/aggregate pattern end to end:
// five synchronized rounds of four workers answering one aggregator, so
// the destination host link is the bottleneck and all flows must still
// complete.
func TestIncastScenario(t *testing.T) {
	const aggregator = 4 // on leaf 1; the workers are leaf 0
	var flows []workload.Flow
	for round := 0; round < 5; round++ {
		for worker := 0; worker < 4; worker++ {
			flows = append(flows, workload.Flow{
				Src: worker, Dst: aggregator, Size: 64 * units.KB,
				Start: units.Time(round) * 5 * units.Millisecond,
			})
		}
	}
	res, err := Run(Scenario{
		Name: "incast", Topology: smallTopo(),
		Balancer: lb.RPS(), SchemeName: "rps", Seed: 3,
		FlowSourceNew: workload.Arrivals(flows), MaxTime: 30 * units.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount(AllFlows) != len(flows) {
		t.Fatalf("completed %d of %d", res.CompletedCount(AllFlows), len(flows))
	}
}

// TestResultFaultsAreTheReachedTimeline: Result.Faults lists the
// scheduled fault events the run reached, sorted the way they were
// applied. A run that ends between the down and the restore
// lists the down only; one that outlasts both lists both, whatever the
// schedule's order.
func TestResultFaultsAreTheReachedTimeline(t *testing.T) {
	down := faults.Event{At: 50 * units.Microsecond, Spine: 1, Op: faults.OpDown}
	restore := faults.Event{At: 400 * units.Microsecond, Spine: 1, Op: faults.OpRestore}
	run := func(restoreAt units.Time) *Result {
		t.Helper()
		r := restore
		r.At = restoreAt
		res, err := Run(Scenario{
			Name: "faulted", Topology: smallTopo(),
			// RPS routes leaf 0's data around the down uplink.
			Balancer: lb.RPS(), SchemeName: "rps", Seed: 2,
			FlowSourceNew: workload.Arrivals([]workload.Flow{{Src: 0, Dst: 4, Size: 200 * units.KB}}),
			Faults:        faults.Schedule{r, down},
			MaxTime:       10 * units.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CompletedCount(AllFlows) != 1 {
			t.Fatal("the flow did not complete")
		}
		return res
	}
	early := run(5 * units.Second)
	if early.EndTime <= down.At || early.EndTime >= 5*units.Second {
		t.Fatalf("run ended at %v, not between the down and the restore", early.EndTime)
	}
	if want := []faults.Event{down}; !reflect.DeepEqual(early.Faults, want) {
		t.Errorf("run ended before the restore: Faults %v, want %v", early.Faults, want)
	}
	both := run(restore.At)
	if both.EndTime <= restore.At {
		t.Fatalf("run ended at %v, before the restore", both.EndTime)
	}
	if want := []faults.Event{down, restore}; !reflect.DeepEqual(both.Faults, want) {
		t.Errorf("run outlasted both events: Faults %v, want %v", both.Faults, want)
	}
}

// TestRepFlowReplication: replicated short flows finish at the minimum
// of their copies, long flows are not replicated, and the run ends
// despite losing copies still draining.
func TestRepFlowReplication(t *testing.T) {
	topo := smallTopo()
	// One very slow path plus three normal ones: an ECMP copy hashed
	// onto the slow path loses the race, the other copy wins.
	slow := topo.FabricLink
	slow.Delay += 5 * units.Millisecond
	topo.Overrides = []topology.LinkOverride{{Leaf: 0, Spine: 1, Link: slow}}

	flows := []workload.Flow{}
	for i := 0; i < 16; i++ {
		flows = append(flows, workload.Flow{
			Src: i % 4, Dst: 4 + i%4, Size: 20 * units.KB,
			Start: units.Time(i) * 50 * units.Microsecond,
		})
	}
	flows = append(flows, workload.Flow{Src: 0, Dst: 5, Size: units.MB, Start: 0})

	run := func(rep bool) (*Result, folds) {
		sc := Scenario{
			Name: "repflow", Topology: topo,
			Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: 12,
			FlowSourceNew: workload.Arrivals(flows), Replicate: rep,
			MaxTime: 30 * units.Second,
		}
		res, recs, err := runWatched(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res, recs
	}
	plain, _ := run(false)
	repl, replRecs := run(true)

	if got := repl.CompletedCount(AllFlows); got != len(flows) {
		t.Fatalf("completed %d of %d", got, len(flows))
	}
	// Replication takes the min of two ECMP draws: short AFCT must not
	// get worse, and with a 5ms trap on one of four paths it should be
	// clearly better.
	if repl.AFCT(ShortFlows) > plain.AFCT(ShortFlows) {
		t.Fatalf("repflow AFCT %v worse than plain %v",
			repl.AFCT(ShortFlows), plain.AFCT(ShortFlows))
	}
	if len(replRecs) != len(flows) {
		t.Fatalf("%d records folded for %d flows", len(replRecs), len(flows))
	}
	for _, fs := range replRecs {
		if fs.Size <= 100*units.KB {
			if !fs.Done || fs.BytesAcked != fs.Size {
				t.Fatalf("replicated flow %v incomplete", fs.ID)
			}
		}
	}
}
