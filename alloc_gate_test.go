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
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
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
// fat-tree under ECMP, 2–32 KB inter-pod flows from the lazy source,
// with the given spec outputs block.
func miceScenario(t *testing.T, flows int, outputs string) sim.Scenario {
	t.Helper()
	sp, err := spec.LoadBytes([]byte(fmt.Sprintf(`{
	  "version": 1, "name": "gate-mice", "seed": 42,
	  "scheme": {"name": "ecmp"},
	  "topology": {"kind": "fattree", "k": 4,
	    "hostLink": {"bandwidth": "1Gbps", "delay": "5us"},
	    "fabricLink": {"bandwidth": "1Gbps", "delay": "10us"},
	    "queue": {"capacity": 256, "ecnThreshold": 65}},
	  "workload": {"kind": "interpod", "interPod": {"flows": %d,
	    "sizes": {"kind": "uniform", "min": "2KB", "max": "32KB"}, "maxGap": "20us"}},
	  "run": {"maxTime": "600s", "stopWhenDone": true},
	  "outputs": %s}`, flows, outputs)))
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
// run allocated.
func runMallocs(t *testing.T, sc sim.Scenario) (*sim.Result, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sim.Run(sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if done, all := res.CompletedCount(sim.AllFlows), res.Count(sim.AllFlows); done != all {
		t.Fatalf("%d of %d flows completed", done, all)
	}
	return res, after.Mallocs - before.Mallocs
}

// TestAllocGatePerFlow: what a flow costs the allocator from arrival to
// fold — its two endpoints in one object and its record, plus the
// amortised growth of the sender registry, the packet pool and the
// event freelist — taken as the slope between a 1 000- and a 5 000-flow
// run so the fabric's set-up cancels. Record mode adds Result.Flows.
// None may drift back towards a closure per timer, per arrival and per
// completion (9.26 per flow before the flow was one object), and the
// time series and queue-length histogram keep nothing per packet or
// per flow.
func TestAllocGatePerFlow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		outputs string
		max     float64
	}{
		{"streamed", `{"streamStats": true}`, 4},
		{"streamed+series", `{"streamStats": true, "collectTimeSeries": true}`, 4},
		{"recorded", `{}`, 6},
	} {
		const few, many = 1000, 5000
		_, a := runMallocs(t, miceScenario(t, few, tc.outputs))
		_, b := runMallocs(t, miceScenario(t, many, tc.outputs))
		perFlow := (float64(b) - float64(a)) / (many - few)
		t.Logf("%s: %.2f allocations per flow", tc.name, perFlow)
		if perFlow > tc.max {
			t.Errorf("%s: %.2f allocations per flow, want <= %.0f", tc.name, perFlow, tc.max)
		}
	}
}

// TestAllocGateResultRetention: a record-mode Result keeps each flow's
// 184-byte record and nothing else of the flow — not the endpoints the
// record used to be embedded in, which tripled what a finished run held.
func TestAllocGateResultRetention(t *testing.T) {
	const flows = 5000
	res, _ := runMallocs(t, miceScenario(t, flows, `{}`))
	if len(res.Flows) != flows {
		t.Fatalf("result has %d flow records, want %d", len(res.Flows), flows)
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
	if perFlow > 320 {
		t.Errorf("result retains %.0f B per flow, want <= 320", perFlow)
	}
}
