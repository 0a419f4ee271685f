// Benchmarks: one per paper figure (reduced-scale, same code path as
// cmd/experiments) plus the per-scheme decision micro-benchmarks
// behind Fig. 15 and the ablation benches DESIGN.md calls out.
//
// The figure benches report, via b.ReportMetric, the headline quantity
// of the corresponding figure (e.g. TLB's short-flow AFCT improvement
// over ECMP at the highest load), so a -bench run doubles as a
// regression check on the reproduction's shape.
package tlb_test

import (
	"testing"

	_ "tlb/internal/core" // registers tlb
	"tlb/internal/eventsim"
	"tlb/internal/experiments"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/transport"
	"tlb/internal/units"
)

// quick returns the reduced-scale options the benches run at.
func quick() experiments.Options { return experiments.Quick() }

// lastRatio extracts series[name]'s last point Y over series[ref]'s
// last point Y — "how much better is ref than name at the highest x".
func lastRatio(figs []experiments.Figure, figID, name, ref string) float64 {
	for _, f := range figs {
		if f.ID != figID {
			continue
		}
		var a, b float64
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				continue
			}
			y := s.Points[len(s.Points)-1].Y
			switch s.Name {
			case name:
				a = y
			case ref:
				b = y
			}
		}
		if b != 0 {
			return a / b
		}
	}
	return 0
}

func runFig(b *testing.B, run func(experiments.Options) ([]experiments.Figure, error)) []experiments.Figure {
	b.Helper()
	var figs []experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		figs, err = run(quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	return figs
}

func BenchmarkFig3Granularity(b *testing.B) {
	figs := runFig(b, experiments.Fig3And4)
	// Fig 3b: packet-level switching must show the largest dup-ACK
	// ratio; report it.
	for _, f := range figs {
		if f.ID == "fig3b" {
			for _, bar := range f.Bars {
				if bar.Label == "packet" {
					b.ReportMetric(bar.Value, "dupAckRatio/packetLevel")
				}
			}
		}
	}
}

func BenchmarkFig4Granularity(b *testing.B) {
	figs := runFig(b, experiments.Fig3And4)
	for _, f := range figs {
		if f.ID == "fig4c" {
			for _, bar := range f.Bars {
				if bar.Label == "flow" {
					b.ReportMetric(bar.Value, "longTputFrac/flowLevel")
				}
			}
		}
	}
}

func BenchmarkFig7Model(b *testing.B) {
	figs := runFig(b, experiments.Fig7)
	// Report the mean |model - simulation| gap over fig7a, in packets.
	for _, f := range figs {
		if f.ID != "fig7a" || len(f.Series) != 2 {
			continue
		}
		var gap float64
		n := 0
		for i := range f.Series[0].Points {
			d := f.Series[0].Points[i].Y - f.Series[1].Points[i].Y
			if d < 0 {
				d = -d
			}
			gap += d
			n++
		}
		if n > 0 {
			b.ReportMetric(gap/float64(n), "modelSimGap/pkts")
		}
	}
}

func BenchmarkFig8ShortFlows(b *testing.B) {
	figs := runFig(b, experiments.Fig8And9)
	for _, f := range figs {
		if f.ID == "fig8-9-summary" {
			for _, bar := range f.Bars {
				if bar.Label == "tlb" {
					b.ReportMetric(bar.Value, "tlbLongGoodput/Gbps")
				}
			}
		}
	}
}

func BenchmarkFig9LongFlows(b *testing.B) {
	runFig(b, experiments.Fig8And9)
}

func BenchmarkFig10WebSearch(b *testing.B) {
	figs := runFig(b, experiments.Fig10)
	if r := lastRatio(figs, "fig10a", "ecmp", "tlb"); r > 0 {
		b.ReportMetric(r, "ecmpAFCT/tlbAFCT@maxLoad")
	}
	if r := lastRatio(figs, "fig10a", "letflow", "tlb"); r > 0 {
		b.ReportMetric(r, "letflowAFCT/tlbAFCT@maxLoad")
	}
}

func BenchmarkFig11DataMining(b *testing.B) {
	figs := runFig(b, experiments.Fig11)
	if r := lastRatio(figs, "fig11a", "ecmp", "tlb"); r > 0 {
		b.ReportMetric(r, "ecmpAFCT/tlbAFCT@maxLoad")
	}
}

func BenchmarkFig12DeadlineAgnostic(b *testing.B) {
	figs := runFig(b, experiments.Fig12)
	if r := lastRatio(figs, "fig12a", "tlb-75th", "tlb-25th"); r > 0 {
		b.ReportMetric(r, "afct75th/afct25th@maxLoad")
	}
}

func BenchmarkFig13VaryShort(b *testing.B) {
	figs := runFig(b, experiments.Fig13)
	if r := lastRatio(figs, "fig13a", "ecmp", "tlb"); r > 0 {
		b.ReportMetric(r, "ecmpAFCT/tlbAFCT@maxShorts")
	}
}

func BenchmarkFig14VaryLong(b *testing.B) {
	figs := runFig(b, experiments.Fig14)
	if r := lastRatio(figs, "fig14a", "ecmp", "tlb"); r > 0 {
		b.ReportMetric(r, "ecmpAFCT/tlbAFCT@maxLongs")
	}
}

func BenchmarkFig16AsymDelay(b *testing.B) {
	figs := runFig(b, experiments.Fig16)
	if r := lastRatio(figs, "fig16a", "rps", "tlb"); r > 0 {
		b.ReportMetric(r, "rpsAFCT/tlbAFCT@maxAsym")
	}
}

func BenchmarkFig17AsymBandwidth(b *testing.B) {
	figs := runFig(b, experiments.Fig17)
	if r := lastRatio(figs, "fig17a", "rps", "tlb"); r > 0 {
		b.ReportMetric(r, "rpsAFCT/tlbAFCT@maxAsym")
	}
}

// ---- Fig. 15: per-packet decision cost, proper testing.B style ----

// benchPorts builds the uplink set the decision benches run against.
func benchPorts(s *eventsim.Sim) []*netem.Port {
	ports := make([]*netem.Port, 10)
	for i := range ports {
		ports[i] = netem.NewPort(s,
			netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			netem.QueueConfig{Capacity: 256},
			func(*netem.Packet) {}, "up")
	}
	return ports
}

// BenchmarkFig15Decision times one steady-state forwarding decision of
// every registered scheme, built the way a run builds it: on its
// declared defaults, through lb.Build, in the paper's NS2 environment.
func BenchmarkFig15Decision(b *testing.B) {
	env := lb.Env{
		FabricBandwidth: units.Gbps, BaseRTT: 100 * units.Microsecond,
		QueueCapacity: 256, ECNThreshold: 65,
	}
	for _, name := range lb.Names() {
		b.Run(name, func(b *testing.B) {
			factory, err := lb.Build(name, nil, "scheme.params", env)
			if err != nil {
				b.Fatal(err)
			}
			s := eventsim.New()
			ports := benchPorts(s)
			bal := factory(s, eventsim.NewRNG(1), ports)
			const flows = 512
			pkts := make([]*netem.Packet, flows)
			for i := range pkts {
				pkts[i] = &netem.Packet{
					Flow:    netem.FlowID{Src: i % 97, Dst: 100 + i%89, Port: i},
					Kind:    netem.Data,
					Payload: 1460, Wire: 1500,
				}
			}
			for i := 0; i < flows; i++ { // warm per-flow state
				bal.Pick(pkts[i], ports)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bal.Pick(pkts[i%flows], ports)
			}
		})
	}
}

// ---- Ablations (DESIGN.md §5) ----

func BenchmarkAblationInterval(b *testing.B) {
	runFig(b, experiments.AblationInterval)
}

func BenchmarkAblationThreshold(b *testing.B) {
	runFig(b, experiments.AblationThreshold)
}

func BenchmarkAblationFixedGranularity(b *testing.B) {
	figs := runFig(b, experiments.AblationFixedGranularity)
	// Adaptive q_th should not lose to any fixed setting on AFCT.
	for _, f := range figs {
		if f.ID != "ablation-fixed-afct" {
			continue
		}
		var adaptive, bestFixed float64
		for _, bar := range f.Bars {
			if bar.Label == "adaptive" {
				adaptive = bar.Value
			} else if bestFixed == 0 || bar.Value < bestFixed {
				bestFixed = bar.Value
			}
		}
		if bestFixed > 0 {
			b.ReportMetric(adaptive/bestFixed, "adaptiveAFCT/bestFixedAFCT")
		}
	}
}

func BenchmarkAblationShortPolicy(b *testing.B) {
	runFig(b, experiments.AblationShortPolicy)
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

// BenchmarkEventQueueSameTick measures the batched same-timestamp
// dispatch path: 64-event bursts sharing one instant, drained through
// RunUntil's slot-batch loop — the shape a fan-in of port deliveries
// on one tick produces.
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
		})
		hosts[from].SetPool(pool)
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

func BenchmarkAblationSafeSwitch(b *testing.B) {
	runFig(b, experiments.AblationSafeSwitch)
}

func BenchmarkAblationDemandCap(b *testing.B) {
	runFig(b, experiments.AblationDemandCap)
}

func BenchmarkAblationTransport(b *testing.B) {
	runFig(b, experiments.AblationTransport)
}

func BenchmarkFatTreeComparison(b *testing.B) {
	figs := runFig(b, experiments.FatTreeComparison)
	for _, f := range figs {
		if f.ID != "fattree-afct" {
			continue
		}
		var tlb, ecmp float64
		for _, bar := range f.Bars {
			switch bar.Label {
			case "tlb":
				tlb = bar.Value
			case "ecmp":
				ecmp = bar.Value
			}
		}
		if tlb > 0 {
			b.ReportMetric(ecmp/tlb, "ecmpAFCT/tlbAFCT")
		}
	}
}

func BenchmarkExtendedBaselines(b *testing.B) {
	runFig(b, experiments.ExtendedBaselines)
}

// BenchmarkLargeScaleStream runs the streamed k=16 fat-tree scenario
// (figLS) at 10k flows — the tracked BENCH_6.json baseline for the
// streaming-stats scale path. Reported metrics: wall-clock flow
// throughput and the process's peak RSS (which must stay flow-count
// independent; EXPERIMENTS.md "Large scale" records the full-scale
// measurements).
func BenchmarkLargeScaleStream(b *testing.B) {
	figs := runFig(b, func(o experiments.Options) ([]experiments.Figure, error) {
		o.FlowsPerRun = 8 // x1250 = 10k flows
		return experiments.FigLS(o)
	})
	for _, f := range figs {
		if f.ID != "figLS" {
			continue
		}
		// The figure carries simulated quantities only; the host-side
		// scale numbers are taken here.
		for _, bar := range f.Bars {
			if bar.Label == "ecmp flows" {
				b.ReportMetric(bar.Value*float64(b.N)/b.Elapsed().Seconds(), "flows/sec")
			}
		}
		b.ReportMetric(experiments.PeakRSSMB(), "peakRSS-MB")
	}
}
