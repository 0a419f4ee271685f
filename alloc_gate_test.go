// Allocation gates: these tests pin the zero-allocation contract of
// the engine hot path (DESIGN.md "Engine performance"), what a flow may
// allocate and what a finished run may retain of it. They are part of
// the ordinary test suite, so `go test ./...` and `make ci` fail if a
// change reintroduces per-event, per-packet or per-flow-closure
// allocation.
package tlb_test

import (
	"fmt"
	"runtime"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/experiments"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/units"
)

// TestAllocGateEventScheduleCancel: a steady-state At+Cancel cycle —
// the pattern every transport timer re-arm executes — must not
// allocate once the event freelist is warm.
func TestAllocGateEventScheduleCancel(t *testing.T) {
	s := eventsim.New()
	fn := func() {}
	cycle := func() { s.Cancel(s.At(s.Now()+1, fn)) }
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Fatalf("At+Cancel cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateEventScheduleFire: a steady-state At+fire cycle must
// not allocate either — firing releases the node back to the freelist
// the next At pops from.
func TestAllocGateEventScheduleFire(t *testing.T) {
	s := eventsim.New()
	fn := func() {}
	cycle := func() {
		s.At(s.Now()+1, fn)
		if !s.Step() {
			t.Fatal("nothing to step")
		}
	}
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Fatalf("At+fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateDecision: a steady-state forwarding decision of every
// registered scheme, in Fig. 15's set-up (experiments.NewDecisions, as
// BenchmarkFig15Decision times it), must not allocate — the
// allocation-free half of Fig. 15's claim.
func TestAllocGateDecision(t *testing.T) {
	for _, name := range lb.Names() {
		d, err := experiments.NewDecisions(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5000, d.Decide); allocs != 0 {
			t.Errorf("%s: a warm decision allocates %.2f allocs/op, want 0", name, allocs)
		}
	}
}

// TestAllocGateFarFutureTimer: an At+Cancel cycle beyond the wheel
// horizon — the RTO-timer pattern, which lands in the calendar queue's
// spill heap rather than a wheel slot — must not allocate either.
func TestAllocGateFarFutureTimer(t *testing.T) {
	s := eventsim.New()
	fn := func() {}
	const far = 50 * units.Millisecond // >> the ~1 ms wheel horizon
	cycle := func() { s.Cancel(s.At(s.Now()+far, fn)) }
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Fatalf("far-future At+Cancel cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateSameTickBatch: scheduling a burst at one instant and
// draining it through RunUntil's batched same-timestamp dispatch must
// not allocate in steady state.
func TestAllocGateSameTickBatch(t *testing.T) {
	s := eventsim.New()
	fn := func() {}
	burst := func() {
		at := s.Now() + 1
		for i := 0; i < 16; i++ {
			s.At(at, fn)
		}
		s.RunUntil(at)
	}
	for i := 0; i < 1024; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(2000, burst); allocs != 0 {
		t.Fatalf("same-tick batch drain allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateDenseSlots: scheduling a few hundred events into future
// wheel slots in scrambled order and draining them — tail appends, the
// sort when each slot is reached (its scratch included), the fires —
// must not allocate once the scratch has grown to the slot size.
func TestAllocGateDenseSlots(t *testing.T) {
	s := eventsim.New()
	rng := eventsim.NewRNG(7)
	fn := func() {}
	burst := func() {
		base := s.Now() + 4096
		for i := 0; i < 300; i++ {
			s.At(base+units.Time(rng.Intn(1024)), fn)
		}
		s.Run()
	}
	for i := 0; i < 64; i++ {
		burst()
	}
	before := s.Counters().SlotSorts
	if allocs := testing.AllocsPerRun(500, burst); allocs != 0 {
		t.Fatalf("dense-slot schedule+sort+fire allocates %.1f allocs/op, want 0", allocs)
	}
	if s.Counters().SlotSorts == before {
		t.Fatal("the burst never exercised the slot sort")
	}
}

// TestAllocGateAtArg: the closure-free (fn, arg) scheduling variant
// with a pointer-typed argument must not allocate in steady state
// (this is the Port delivery path).
func TestAllocGateAtArg(t *testing.T) {
	s := eventsim.New()
	type payload struct{ n int }
	arg := &payload{}
	fn := func(a any) { a.(*payload).n++ }
	cycle := func() {
		s.AtArg(s.Now()+1, fn, arg)
		if !s.Step() {
			t.Fatal("nothing to step")
		}
	}
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Fatalf("AtArg+fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGatePortTransit: the full per-packet path — pool Get,
// Port.Send (queue admission + delivery scheduling), serialization,
// delivery, pool release — must be allocation-free in steady state.
func TestAllocGatePortTransit(t *testing.T) { portTransitGate(t, 1, 1, 4096, 2000) }

// TestAllocGatePortTransitPipelined covers the burst shape the real
// fabric produces — many packets admitted before the drain runs — so
// the packet chain and heap exercise depth > 1.
func TestAllocGatePortTransitPipelined(t *testing.T) { portTransitGate(t, 1, 64, 256, 500) }

// TestAllocGatePortTransitCold is BenchmarkPortTransitCold's shape: a
// k=16 fat-tree's 6 144 ports round-robin, a few packets in flight on
// each, thousands of deliveries sharing every instant.
func TestAllocGatePortTransitCold(t *testing.T) { portTransitGate(t, 6144, 4, 2, 5) }

// portTransitGate sends perPort packets to each of nPorts ports, drains
// the engine, and requires that burst to allocate nothing once warm.
func portTransitGate(t *testing.T, nPorts, perPort, warm, runs int) {
	s := eventsim.New()
	pool := netem.NewPacketPool()
	ports := make([]*netem.Port, nPorts)
	for i := range ports {
		ports[i] = netem.NewPort(s,
			netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			netem.QueueConfig{Capacity: 1 << 20},
			func(pkt *netem.Packet) { pool.Put(pkt) }, "gate")
	}
	burst := func() {
		for i := 0; i < nPorts*perPort; i++ {
			pkt := pool.Get()
			pkt.Flow = netem.FlowID{Src: 1, Dst: 2}
			pkt.Kind = netem.Data
			pkt.Payload = 1460
			pkt.Wire = 1500
			if !ports[i%nPorts].Send(pkt) {
				t.Fatal("send refused")
			}
		}
		s.Run()
	}
	for i := 0; i < warm; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(runs, burst); allocs != 0 {
		t.Fatalf("steady-state transit burst (%d ports x %d packets) allocates %.1f allocs/op, want 0", nPorts, perPort, allocs)
	}
}

// miceScenario compiles the fattree-mice shape at gate scale: a k=4
// fat-tree under ECMP, 2–32 KB inter-pod flows from the lazy source
// arriving at most maxGap apart, with the given spec outputs block.
func miceScenario(t *testing.T, flows int, maxGap, outputs string) sim.Scenario {
	t.Helper()
	sp, err := spec.LoadBytes([]byte(fmt.Sprintf(`{
	  "version": 1, "name": "gate-mice", "seed": 42,
	  "scheme": {"name": "ecmp"},
	  "topology": {"kind": "fattree", "k": 4,
	    "hostLink": {"bandwidth": "1Gbps", "delay": "5us"},
	    "fabricLink": {"bandwidth": "1Gbps", "delay": "10us"},
	    "queue": {"capacity": 256, "ecnThreshold": 65}},
	  "workload": {"kind": "interpod", "interPod": {"flows": %d,
	    "sizes": {"kind": "uniform", "min": "2KB", "max": "32KB"}, "maxGap": "%s"}},
	  "run": {"maxTime": "600s"},
	  "outputs": %s}`, flows, maxGap, outputs)))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runMallocs runs sc and returns its result with the heap objects the
// run allocated and the flow objects its flow pool allocated.
func runMallocs(t *testing.T, sc sim.Scenario) (*sim.Result, uint64, int64) {
	t.Helper()
	var flows int64
	done := sim.ObserverFunc(func(ev sim.ProgressEvent) { flows = ev.FlowsAllocated })
	ss := sim.NewSession(sc, sim.SessionOptions{Observer: done})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := ss.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if done, all := res.CompletedCount(sim.AllFlows), res.Count(sim.AllFlows); done != all {
		t.Fatalf("%d of %d flows completed", done, all)
	}
	return res, after.Mallocs - before.Mallocs, flows
}

// TestAllocGatePerFlow: what a flow costs the allocator from arrival to
// fold, taken as the slope between a 1 000- and a 5 000-flow run so the
// fabric's set-up cancels. Flows come from the run's flow pool, their
// records included, so a flow allocates nothing of its own: the first
// two rows, at a 20 µs gap the k=4 fabric cannot keep up with, count
// the growth of the backlog — about half the flows are open at the end,
// each a pooled flow and its packets in flight (2.46 per flow before
// flows were pooled, 9.26 before a flow was one object, and 2.1 while a
// run could keep a copy of each record). The last row runs a load the
// fabric carries: the pool's allocations stop growing with the flow
// count, and so does the run's.
// None may drift back towards an object per flow, a closure per timer,
// per arrival or per completion, and the time series and queue-length
// histogram keep nothing per packet or per flow.
func TestAllocGatePerFlow(t *testing.T) {
	for _, tc := range []struct {
		name, maxGap, outputs string
		max                   float64
		carried               bool // the pool may not grow
	}{
		{"backlog", "20us", `{}`, 1.1, false},
		{"backlog+series", "20us", `{"timeBucket": "1ms"}`, 1.1, false},
		{"carried load", "200us", `{}`, 0.1, true},
	} {
		const few, many = 1000, 5000
		_, a, poolA := runMallocs(t, miceScenario(t, few, tc.maxGap, tc.outputs))
		_, b, poolB := runMallocs(t, miceScenario(t, many, tc.maxGap, tc.outputs))
		perFlow := (float64(b) - float64(a)) / (many - few)
		t.Logf("%s: %.2f allocations per flow, %d -> %d flows allocated by the pool", tc.name, perFlow, poolA, poolB)
		if perFlow > tc.max {
			t.Errorf("%s: %.2f allocations per flow, want <= %.1f", tc.name, perFlow, tc.max)
		}
		if tc.carried && poolB > poolA {
			t.Errorf("%s: the flow pool allocated %d flows for %d flows but %d for %d, want no growth", tc.name, poolA, few, poolB, many)
		}
	}
}

// TestAllocGateResultRetention: a Result does not grow with the flow
// count. It keeps no per-flow record (a copy of each 160-byte record
// once, and the pooled flows that held them before that) and, past
// stats.ExactFCTCap completions per class, no per-flow FCT either.
func TestAllocGateResultRetention(t *testing.T) {
	const flows = 5000
	res, _, _ := runMallocs(t, miceScenario(t, flows, "20us", `{}`))
	if res.Count(sim.AllFlows) != flows || res.CompletedCount(sim.ShortFlows) <= stats.ExactFCTCap {
		t.Fatalf("%d flows, %d short completed: test wants %d flows past the exact cap", res.Count(sim.AllFlows), res.CompletedCount(sim.ShortFlows), flows)
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(res)
	res = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	perFlow := (float64(with.HeapAlloc) - float64(without.HeapAlloc)) / flows
	t.Logf("result retains %.0f B per flow", perFlow)
	if perFlow > 16 {
		t.Errorf("result retains %.0f B per flow, want <= 16", perFlow)
	}
}
