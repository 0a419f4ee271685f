package experiments

import (
	"fmt"
	"runtime"
	"time"

	"tlb/internal/core"
	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/transport"
	"tlb/internal/units"
)

// Fig15 reproduces the §7 overhead study in this repository's terms.
// The paper measures switch CPU and memory utilization on BMv2; here
// the equivalent question is "what does each scheme's per-packet
// forwarding decision cost". fig15a reports nanoseconds per decision,
// fig15b bytes of per-switch scheme state after a realistic flow mix —
// TLB's overhead must be a small constant over ECMP/RPS/Presto, which
// is the figure's claim.
//
// Fig15 times the five testbed schemes as a testbed run builds them
// (testbedSchemes in testbedEnv), warmed with 1 000 flows' data packets
// plus the pure-ACK stream of every fourth flow, by the wall clock
// around 200 000 decisions over that mix. The root BenchmarkFig15Decision
// times a different set-up under testing.B: every registered scheme on
// its registry defaults in the paper's NS2 environment, warmed with
// one data packet of each of 512 flows and no ACKs.
func Fig15(o Options) ([]Figure, error) {
	sim := eventsim.New()
	rng := eventsim.NewRNG(o.Seed)
	ports := make([]*netem.Port, 10)
	for i := range ports {
		ports[i] = netem.NewPort(sim,
			netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			netem.QueueConfig{Capacity: 256},
			func(*netem.Packet) {}, "up")
	}

	schemes := testbedSchemes()
	e := testbedEnv(100, 4)

	cpu := Figure{ID: "fig15a", Title: "Per-packet decision cost", YLabel: "ns/decision"}
	mem := Figure{ID: "fig15b", Title: "Per-switch scheme state", YLabel: "bytes after 1000-flow mix"}

	const decisions = 200000
	const flows = 1000
	for _, s := range schemes {
		// The balancer is the one a testbed run of the scheme builds.
		sp := e.spec(s, "fig15-"+s.label(), o.Seed)
		sc, err := sp.Compile()
		if err != nil {
			return nil, fmt.Errorf("fig15: %w", err)
		}
		bal := sc.Balancer(sim, rng.Split(), ports)
		// The warm mix is what a leaf switch actually balances: every
		// flow's data direction plus the reverse-direction pure-ACK
		// stream of every fourth flow. The ACKs matter for fig15b: they
		// never carry FIN, so a scheme that gives them flow-table
		// entries (the Presto/LetFlow leak this repo fixed) shows the
		// leaked state here.
		pkts := make([]*netem.Packet, 0, flows+flows/4)
		for i := 0; i < flows; i++ {
			flow := netem.FlowID{Src: i % 97, Dst: 100 + i%89, Port: i}
			pkts = append(pkts, &netem.Packet{
				Flow: flow, Kind: netem.Data, Payload: transport.MSS, Wire: transport.MSS + transport.HeaderBytes,
			})
			if i%4 == 0 {
				pkts = append(pkts, &netem.Packet{
					Flow: flow.Reversed(), Kind: netem.Ack, Wire: transport.HeaderBytes,
				})
			}
		}
		// Memory: live heap growth from warming the scheme's state
		// with the flow mix (flow tables, flowlet maps, ...).
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, pkt := range pkts {
			bal.Pick(pkt, ports)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		stateBytes := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		if stateBytes < 0 {
			stateBytes = 0
		}

		// CPU: steady-state decision cost over the warmed state.
		start := time.Now()
		for i := 0; i < decisions; i++ {
			bal.Pick(pkts[i%len(pkts)], ports)
		}
		elapsed := time.Since(start)

		cpu.Bars = append(cpu.Bars, Bar{s.label(), float64(elapsed.Nanoseconds()) / decisions})
		mem.Bars = append(mem.Bars, Bar{s.label(), stateBytes})
		o.logf("fig15: %s %.1f ns/decision", s.label(), float64(elapsed.Nanoseconds())/decisions)
		if tl, ok := bal.(*core.TLB); ok {
			// TLB's decision breakdown: control routing is counted apart
			// from short/long data decisions (Stats.ControlPackets).
			st := tl.Stats()
			o.logf("fig15: tlb decisions short=%d long=%d control=%d",
				st.ShortPackets, st.LongPackets, st.ControlPackets)
		}
	}
	return []Figure{cpu, mem}, nil
}
