package sim

import (
	"fmt"
	"testing"
	"time"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// TestEngineCountersDenseFabric is the count-based, host-independent
// gate on the event wheel's dense-slot behaviour. A k=8 fat-tree under
// uniform mice keeps a few hundred independently-phased ports busy, so
// every 512 ns slot collects many events in no particular order; the
// wheel must take them as appends and order each slot once, when it is
// reached. WalkSteps counts the keys an ordered insert (at or behind
// the sorted frontier) moves to make room for its own. Placing every
// insert in order — what an always-sorted slot costs — moves 6.5 keys
// per insert on this scenario (counted on an engine that did so)
// against 0.5 now; the bound sits between. The insert counters must
// also account for every event exactly once: executed, cancelled, or
// still queued when the last completion ended the run.
func TestEngineCountersDenseFabric(t *testing.T) {
	src, err := workload.InterPodConfig{
		Hosts:  128,
		PerPod: 16,
		Flows:  3000,
		Sizes:  workload.Uniform{MinSize: 2 * units.KB, MaxSize: 32 * units.KB},
		MaxGap: 2400,
	}.Source(eventsim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	flows := workload.Collect(src)
	sc := Scenario{
		Name:          "dense-fabric",
		Topology:      smallFatTree(8),
		Balancer:      lb.ECMP(),
		SchemeName:    "ecmp",
		Seed:          11,
		FlowSourceNew: workload.Arrivals(flows),
		MaxTime:       units.Second,
	}
	// The wrapping seam only keeps the engine, for its pending count.
	var engine *eventsim.Sim
	sc.BuildNetwork = func(s *eventsim.Sim, f lb.Factory, rng *eventsim.RNG, deliver topology.DeliverFunc) (topology.Network, error) {
		engine = s
		return topology.New(s, sc.Topology, f, rng, deliver)
	}
	var done ProgressEvent
	res, err := NewSession(sc, SessionOptions{
		Observer: ObserverFunc(func(ev ProgressEvent) { done = ev }),
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := res.CompletedCount(AllFlows); n != len(flows) {
		t.Fatalf("%d of %d flows completed", n, len(flows))
	}
	e := done.Engine
	inserts := e.WheelInserts + e.Migrations
	t.Logf("events %d, counters %+v", done.Events, e)
	t.Logf("keys moved per wheel insert %.3f; mean sorted slot %.1f",
		float64(e.WalkSteps)/float64(inserts), float64(e.EventsSorted)/float64(e.SlotSorts))
	if e.WalkSteps > 2*inserts {
		t.Errorf("%d keys moved for %d wheel inserts: more than 2 per insert", e.WalkSteps, inserts)
	}
	if e.SlotSorts == 0 || e.EventsSorted < inserts/2 {
		t.Errorf("%d slot sorts covering %d of %d inserts: the scenario is not dense enough to exercise sort-on-reach",
			e.SlotSorts, e.EventsSorted, inserts)
	}
	pending := uint64(engine.Pending())
	if got, want := e.WheelInserts+e.SpillInserts, done.Events+e.Cancels+pending; got != want {
		t.Errorf("%d events scheduled, %d executed + cancelled + pending (%d)", got, want, pending)
	}
}

// TestResultCountsItsCost: a run's Result carries its own event count,
// the Done event's, and its packet hops, the sum of every port's
// Dequeued over the fabric the run built.
func TestResultCountsItsCost(t *testing.T) {
	sc := Scenario{
		Name:       "cost",
		Topology:   smallTopo(),
		Balancer:   lb.RPS(),
		SchemeName: "rps",
		Seed:       3,
		FlowSourceNew: workload.Arrivals([]workload.Flow{
			{Src: 0, Dst: 4, Size: 200 * units.KB, Start: 0},
			{Src: 1, Dst: 5, Size: 30 * units.KB, Start: 10 * units.Microsecond},
			{Src: 6, Dst: 2, Size: 60 * units.KB, Start: 20 * units.Microsecond},
		}),
		MaxTime: units.Second,
	}
	var net topology.Network
	sc.BuildNetwork = func(s *eventsim.Sim, f lb.Factory, rng *eventsim.RNG, deliver topology.DeliverFunc) (topology.Network, error) {
		fab, err := topology.New(s, sc.Topology, f, rng, deliver)
		net = fab
		return fab, err
	}
	var done ProgressEvent
	res, err := NewSession(sc, SessionOptions{
		Observer: ObserverFunc(func(ev ProgressEvent) { done = ev }),
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	var hops int64
	net.EveryQueue(func(_ string, q *netem.Queue) { hops += q.Stats().Dequeued })
	if res.PacketHops != hops || res.Events != done.Events {
		t.Fatalf("Result counts %d hops and %d events; the ports dequeued %d and the Done event counts %d",
			res.PacketHops, res.Events, hops, done.Events)
	}
	// Every segment and ACK crosses at least a host NIC and a leaf.
	if hops < 2*int64((200+30+60)*units.KB/transport.MSS) || res.Events < uint64(hops) {
		t.Fatalf("%d hops and %d events for 290 KB", hops, res.Events)
	}
}

// TestDoneEventReportsItsCost: the Done event carries the run's packet
// hops beside its events, and RunCost's rates divide them by Elapsed as
// the session's Clock measured it — a fake here, so the line is exact.
func TestDoneEventReportsItsCost(t *testing.T) {
	sc := Scenario{
		Name:          "cost",
		Topology:      smallTopo(),
		Balancer:      lb.RPS(),
		SchemeName:    "rps",
		Seed:          3,
		FlowSourceNew: workload.Arrivals([]workload.Flow{{Src: 0, Dst: 4, Size: 200 * units.KB}}),
		MaxTime:       units.Second,
	}
	var now time.Duration
	fake := func() time.Duration { // each reading a second after the last
		now += time.Second
		return now
	}
	var done ProgressEvent
	res, err := NewSession(sc, SessionOptions{
		Observer: ObserverFunc(func(ev ProgressEvent) { done = ev }),
		Clock:    fake,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if done.PacketHops != res.PacketHops || done.Events != res.Events || done.PacketHops == 0 {
		t.Fatalf("Done event counts %d hops and %d events; the Result %d and %d",
			done.PacketHops, done.Events, res.PacketHops, res.Events)
	}
	var cost RunCost
	cost.Add(done)
	cost.Add(done)
	want := fmt.Sprintf("%.2f M events/s, %.0f ns/packet-hop",
		float64(done.Events)/1e6, 1e9/float64(done.PacketHops))
	if done.Elapsed != time.Second || cost.String() != want {
		t.Fatalf("Elapsed %v, cost %q; want 1s and %q", done.Elapsed, cost, want)
	}
}
