// Benchmarks: the per-scheme decision cost behind Fig. 15, the engine,
// port and transport micro-benchmarks, and campaign set-up. Whole runs
// are timed by the bench/ workloads, not here; `make bench-pair
// B=<regexp>` pairs these against another commit.
package tlb_test

import (
	"fmt"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/experiments"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/spec"
	"tlb/internal/transport"
	"tlb/internal/units"
)

// ---- Fig. 15: per-packet decision cost, proper testing.B style ----

// BenchmarkFig15Decision times one steady-state forwarding decision of
// every registered scheme, in Fig. 15's set-up (experiments.NewDecisions).
func BenchmarkFig15Decision(b *testing.B) {
	for _, name := range lb.Names() {
		b.Run(name, func(b *testing.B) {
			d, err := experiments.NewDecisions(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Decide()
			}
		})
	}
}

// ---- Simulator core micro-benches (engine cost, not a paper figure) ----

// BenchmarkEventQueue measures schedule+run through the calendar
// queue in 1024-deep batches (the tracked BENCH_4→BENCH_8 baseline —
// its shape must stay fixed for cross-PR comparison). Every scheduled
// event is also executed inside the timed region (the final drain
// included), so allocs/op is the true per-event cost — nothing leaks
// past the b.N loop — and Executed() equals b.N exactly, making the
// events/sec metric honest.
func BenchmarkEventQueue(b *testing.B) {
	s := eventsim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(units.Time(i), fn)
		if s.Pending() >= 1024 {
			for s.Step() {
			}
		}
	}
	for s.Step() {
	}
	b.StopTimer()
	if s.Executed() != uint64(b.N) {
		b.Fatalf("executed %d events, want %d", s.Executed(), b.N)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.Executed())/secs, "events/sec")
	}
}

// BenchmarkEventQueueSameTick measures same-timestamp dispatch: 64-event
// bursts sharing one instant, fired by RunUntil one after the other
// from the slot's cursor — the shape a fan-in of port deliveries on one
// tick produces.
func BenchmarkEventQueueSameTick(b *testing.B) {
	s := eventsim.New()
	fn := func() {}
	const burst = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		at := s.Now() + 1
		for j := 0; j < burst; j++ {
			s.At(at, fn)
		}
		s.RunUntil(at)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.Executed())/secs, "events/sec")
	}
}

// BenchmarkEventQueueDense measures the dense-fabric shape the three
// benchmarks above never produce: thousands of independently-phased
// sources, each rescheduling itself a random 1..32 768 ns ahead, so
// ~128 live events share every 512 ns wheel slot and almost every
// insert lands mid-slot rather than at its tail (BenchmarkEventQueue
// schedules monotone timestamps: tail appends only). This is what a
// k=16 fat-tree's 6 144 ports do to the wheel. Every scheduled event
// fires inside the timed region, so Executed() equals b.N.
func BenchmarkEventQueueDense(b *testing.B) {
	s := eventsim.New()
	rng := eventsim.NewRNG(1)
	const (
		sources = 4096
		maxGap  = 64 * 512 // mean gap 32 slots -> sources/32 = 128 events per slot
	)
	left := b.N
	var fire func(any)
	fire = func(any) {
		if left > 0 {
			left--
			s.AtArg(s.Now()+1+units.Time(rng.Intn(maxGap)), fire, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < sources && left > 0; i++ {
		left--
		s.AtArg(units.Time(rng.Intn(maxGap)), fire, nil)
	}
	s.Run()
	b.StopTimer()
	if s.Executed() != uint64(b.N) {
		b.Fatalf("executed %d events, want %d", s.Executed(), b.N)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.Executed())/secs, "events/sec")
	}
}

// BenchmarkEventQueueFarTimers measures the spill path: an At+Cancel
// cycle far beyond the wheel horizon, the steady-state cost of every
// transport RTO re-arm.
func BenchmarkEventQueueFarTimers(b *testing.B) {
	s := eventsim.New()
	fn := func() {}
	const far = 50 * units.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.At(s.Now()+far, fn))
	}
}

// BenchmarkEventQueueCancel measures Cancel in a shared slot, the RTO
// pattern: a timer armed a few slots ahead lands in a slot that holds
// about a dozen other events, and is cancelled, seven times in eight,
// by the next op's re-arm before it fires. Self-rescheduling sources
// keep the dozen events in every 512 ns slot; each op also fires one
// event, so the clock moves and the timers' slots are reached.
func BenchmarkEventQueueCancel(b *testing.B) {
	s := eventsim.New()
	rng := eventsim.NewRNG(1)
	const (
		sources = 384      // a mean gap of 32 slots: 12 events per slot
		maxGap  = 64 * 512 // ns
		ahead   = 4 * 512  // ns
	)
	var fire func(any)
	fire = func(any) { s.AtArg(s.Now()+1+units.Time(rng.Intn(maxGap)), fire, nil) }
	for i := 0; i < sources; i++ {
		s.AtArg(units.Time(rng.Intn(maxGap)), fire, nil)
	}
	timer := func() {}
	var pending eventsim.Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 != 0 {
			s.Cancel(pending)
		}
		pending = s.At(s.Now()+ahead, timer)
		s.Step()
	}
	b.StopTimer()
	if c := s.Counters(); c.Cancels < uint64(b.N)/2 {
		b.Fatalf("%d cancels in %d ops", c.Cancels, b.N)
	}
}

// BenchmarkPortTransit measures the full steady-state per-packet path:
// pool Get, Send (admission + delivery scheduling), serialization,
// delivery, pool release — the cycle every data segment and ACK of a
// figure run pays at every hop — on one hot port, 1024 packets deep.
func BenchmarkPortTransit(b *testing.B) { benchPortTransit(b, 1, 1024) }

// BenchmarkPortTransitCold is the same cycle spread over the 6 144
// ports of a k=16 fat-tree, visited round-robin with a few packets in
// flight on each, so every Send and every delivery finds its port and
// its queued packets evicted since their last use. This is the rung
// that sees a port's cache footprint; the single hot port above cannot.
func BenchmarkPortTransitCold(b *testing.B) { benchPortTransit(b, 6144, 4) }

// benchPortTransit sends b.N packets round-robin over nPorts ports and
// drains the engine every time each port holds perPort of them.
func benchPortTransit(b *testing.B, nPorts, perPort int) {
	s := eventsim.New()
	pool := netem.NewPacketPool()
	delivered := 0
	ports := make([]*netem.Port, nPorts)
	for i := range ports {
		ports[i] = netem.NewPort(s,
			netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			netem.QueueConfig{Capacity: 1 << 20},
			func(pkt *netem.Packet) { delivered++; pool.Put(pkt) }, "bench")
	}
	round := nPorts * perPort
	transit := func(n int) {
		for i := 0; i < n; i++ {
			pkt := pool.Get()
			pkt.Flow = netem.FlowID{Src: 1, Dst: 2}
			pkt.Kind = netem.Data
			pkt.Payload = 1460
			pkt.Wire = 1500
			ports[i%nPorts].Send(pkt)
			if i%round == round-1 {
				s.Run()
			}
		}
		s.Run()
	}
	transit(round) // warm the pool and the engine's freelist
	delivered = 0
	warm := s.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	transit(b.N)
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d packets, want %d", delivered, b.N)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.Executed()-warm)/secs, "events/sec")
	}
}

// BenchmarkSendAckCycle measures the transport rung between the port
// and a whole run: one long DCTCP flow between two hosts joined by one
// port each way, window-limited and loss-free, so every operation is one
// packet delivered to its endpoint — a data segment received and
// acknowledged, or an ACK that opens the window for the next segment —
// with its share of the two port transits and the RTO re-arm. The flow
// is opened before the timer starts; its steady state allocates nothing.
func BenchmarkSendAckCycle(b *testing.B) {
	s := eventsim.New()
	pool := netem.NewPacketPool()
	flows := &transport.FlowPool{}
	var hosts [2]*transport.Host
	delivered := 0
	join := func(from, to int) {
		port := netem.NewPort(s,
			netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
			func(pkt *netem.Packet) { delivered++; hosts[to].Receive(pkt) }, "cycle")
		hosts[from] = transport.NewHost(s, from, func(pkt *netem.Packet) {
			if !port.Send(pkt) {
				b.Fatal("send refused")
			}
		}, pool, flows)
	}
	join(0, 1)
	join(1, 0)
	var cfg transport.Config
	const warm = 4096
	// Two deliveries per segment, and enough segments that the flow
	// outlasts the warm-up and the timed region.
	size := units.Bytes(warm+b.N) * transport.MSS
	snd := transport.Open(&cfg, hosts[0], hosts[1], netem.FlowID{Src: 0, Dst: 1}, size, nil)
	snd.Start()
	for delivered < warm && s.Step() {
	}
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for delivered < b.N && s.Step() {
	}
	b.StopTimer()
	if delivered != b.N || snd.Stats.Retransmits != 0 {
		b.Fatalf("delivered %d packets, want %d (%d retransmits)", delivered, b.N, snd.Stats.Retransmits)
	}
}

// campaignSpec is one scenario of BenchmarkSpecCompile's campaign: the
// web-search preset with the scheme, load and truncation cap filled in.
const campaignSpec = `{
  "version": 1,
  "name": "campaign-%s-%g",
  "seed": 1,
  "scheme": {"name": %q},
  "topology": {
    "leaves": 8, "spines": 8, "hostsPerLeaf": 16,
    "hostLink": {"bandwidth": "1Gbps", "delay": "5us"},
    "fabricLink": {"bandwidth": "1Gbps", "delay": "10us"},
    "queue": {"capacity": 256, "ecnThreshold": 20}
  },
  "workload": {
    "kind": "poisson", "flows": 500, "load": %g,
    "sizes": {"kind": "websearch", "truncate": %q},
    "deadlines": {"min": "5ms", "max": "25ms", "onlyBelow": "100KB"}
  },
  "run": {"maxTime": "60s"},
  "outputs": {}
}`

// BenchmarkSpecCompile times the set-up a campaign pays before its
// first run, per campaign of 20 web-search scenarios (five schemes at
// four loads): each spec's JSON through spec.LoadBytes, Validate and
// Compile, the path bench/'s setup_s samples. warm compiles the same
// campaign every op, so its truncated mean is already known. fresh-cap
// gives each op's campaign a truncation cap no earlier op used, so each
// op pays the one integration a new (distribution, cap) costs, once for
// all 20 scenarios.
func BenchmarkSpecCompile(b *testing.B) {
	campaign := func(max units.Bytes) [][]byte {
		var docs [][]byte
		for _, scheme := range []string{"ecmp", "rps", "presto", "letflow", "tlb"} {
			for _, load := range []float64{0.2, 0.4, 0.6, 0.8} {
				docs = append(docs, []byte(fmt.Sprintf(campaignSpec, scheme, load, scheme, load, units.FormatBytes(max))))
			}
		}
		return docs
	}
	compile := func(b *testing.B, docs [][]byte) {
		for _, doc := range docs {
			sp, err := spec.LoadBytes(doc)
			if err != nil {
				b.Fatal(err)
			}
			if err := sp.Validate(); err != nil {
				b.Fatal(err)
			}
			if _, err := sp.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("warm", func(b *testing.B) {
		docs := campaign(20 * units.MB)
		compile(b, docs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compile(b, docs)
		}
	})
	// The caps count up across every invocation of the sub-benchmark, so
	// none repeats between its calibration rounds either.
	next := 20 * units.MB
	b.Run("fresh-cap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			next++
			docs := campaign(next)
			b.StartTimer()
			compile(b, docs)
		}
	})
}
