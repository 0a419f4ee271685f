package sim

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/topology"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// TestEngineCountersDenseFabric is the count-based, host-independent
// gate on the event wheel's dense-slot behaviour. A k=8 fat-tree under
// uniform mice keeps a few hundred independently-phased ports busy, so
// every 512 ns slot collects many events in no particular order; the
// wheel must take them as tail appends and order each slot once, when
// it is reached. Walking the slot list on every insert — what an
// always-sorted slot costs — takes 6.5 steps per insert on this
// scenario (counted on the engine that did so) against 0.5 now; the
// bound sits between. The insert counters must also account for every
// event exactly once: executed, cancelled, or still queued when the
// last completion ended the run.
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
	t.Logf("walk steps per wheel insert %.3f; mean sorted slot %.1f",
		float64(e.WalkSteps)/float64(inserts), float64(e.EventsSorted)/float64(e.SlotSorts))
	if e.WalkSteps > 2*inserts {
		t.Errorf("%d walk steps for %d wheel inserts: more than 2 per insert", e.WalkSteps, inserts)
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
