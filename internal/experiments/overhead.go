package experiments

import (
	"fmt"
	"runtime"
	"time"

	"tlb/internal/core"
	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/topology"
	"tlb/internal/transport"
)

// Fig15 reproduces the §7 overhead study in this repository's terms.
// The paper measures switch CPU and memory utilization on BMv2; here
// the equivalent question is "what does each scheme's per-packet
// forwarding decision cost". fig15a reports nanoseconds per decision,
// fig15b bytes of per-switch scheme state after a realistic flow mix —
// TLB's overhead must be a small constant over ECMP/RPS/Presto, which
// is the figure's claim.
//
// Both panels come from one set-up, NewDecisions, which the root
// BenchmarkFig15Decision and TestAllocGateDecision share: fig15a is the
// wall clock around a fixed count of the benchmark's decisions, fig15b
// the heap the warm-up left behind.
func Fig15(o Options) ([]Figure, error) {
	cpu := Figure{ID: "fig15a", Title: "Per-packet decision cost", YLabel: "ns/decision"}
	mem := Figure{ID: "fig15b", Title: "Per-switch scheme state", YLabel: "bytes after 1000-flow mix"}

	const decisions = 200000
	for _, s := range testbedSchemes() {
		d, err := NewDecisions(s.Name, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig15: %w", err)
		}
		start := time.Now()
		for i := 0; i < decisions; i++ {
			d.Decide()
		}
		ns := float64(time.Since(start).Nanoseconds()) / decisions

		cpu.Bars = append(cpu.Bars, Bar{s.label(), ns})
		mem.Bars = append(mem.Bars, Bar{s.label(), d.stateBytes})
		o.logf("fig15: %s %.1f ns/decision", s.label(), ns)
		if tl, ok := d.bal.(*core.TLB); ok {
			// TLB's decision breakdown: control routing is counted apart
			// from short/long data decisions (Stats.ControlPackets).
			st := tl.Stats()
			o.logf("fig15: tlb decisions short=%d long=%d control=%d",
				st.ShortPackets, st.LongPackets, st.ControlPackets)
		}
	}
	return []Figure{cpu, mem}, nil
}

// warmFlows is how many flows NewDecisions warms a balancer with.
const warmFlows = 1000

// Decisions is one scheme's steady-state forwarding decision, Fig. 15's
// one set-up: the balancer a §7 testbed run builds for the scheme, over
// the testbed's ten uplinks (link and queue as testbedEnv states them),
// warmed with a 1 000-flow mix.
type Decisions struct {
	bal lb.Balancer
	// stateBytes is the live heap the warm-up's decisions left behind:
	// the scheme's per-switch state after the mix (fig15b).
	stateBytes float64

	//simlint:allow packetown(the warm mix is built here and never comes from or goes to a pool: no port ever sends it)
	pkts  []*netem.Packet
	ports []*netem.Port
	next  int
}

// NewDecisions builds the named registered scheme as a testbed run
// builds it — the five testbed schemes with testbedSchemes()'s
// parameters, any other on its registry defaults — and warms it with
// every flow's data direction plus the reverse-direction pure-ACK
// stream of every fourth flow, which is what a leaf switch actually
// balances. The ACKs matter for fig15b: they never carry FIN, so a
// scheme that gives them flow-table entries (the Presto/LetFlow leak
// this repo fixed) shows the leaked state. The heap reading brackets
// only the warm-up's Picks, not the packets they take.
func NewDecisions(name string, seed uint64) (*Decisions, error) {
	s := Scheme{Name: name}
	for _, t := range testbedSchemes() {
		if t.Name == name {
			s = t
		}
	}
	e := testbedEnv(100, 4)
	sp := e.spec(s, "fig15-"+s.label(), seed)
	sc, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	return warmDecisions(e.topo, sc.Balancer, seed), nil
}

// warmDecisions builds a balancer with f over topo's uplinks, one per
// spine, on a fresh engine and warms it with the 1 000-flow mix,
// reading the live heap the warm-up's Picks left behind. The engine
// carves its first block of event nodes and its free list on its first
// schedule; one event scheduled and cancelled before the baseline pays
// for them, so a scheme that arms a timer is charged its own state,
// not the engine's.
func warmDecisions(topo topology.Config, f lb.Factory, seed uint64) *Decisions {
	engine := eventsim.New()
	d := &Decisions{ports: make([]*netem.Port, topo.Spines)}
	for i := range d.ports {
		d.ports[i] = netem.NewPort(engine, topo.FabricLink, topo.Queue, func(*netem.Packet) {}, "up")
	}
	d.bal = f(engine, eventsim.NewRNG(seed), d.ports)
	d.pkts = make([]*netem.Packet, 0, warmFlows+warmFlows/4)
	for i := 0; i < warmFlows; i++ {
		flow := netem.FlowID{Src: i % 97, Dst: 100 + i%89, Port: i}
		d.pkts = append(d.pkts, &netem.Packet{
			Flow: flow, Kind: netem.Data, Payload: transport.MSS, Wire: transport.MSS + transport.HeaderBytes,
		})
		if i%4 == 0 {
			d.pkts = append(d.pkts, &netem.Packet{
				Flow: flow.Reversed(), Kind: netem.Ack, Wire: transport.HeaderBytes,
			})
		}
	}

	engine.Cancel(engine.After(0, func() {})) // carves the first event block
	// Two collections: the first moves what sync.Pools hold to their
	// victim caches, the second frees it, so no pool drain lands in the
	// reading.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range d.pkts {
		d.Decide()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	d.stateBytes = max(float64(after.HeapAlloc)-float64(before.HeapAlloc), 0)
	return d
}

// Decide makes one steady-state decision: the balancer picks an uplink
// for the next packet of the warm mix, cycling through it.
func (d *Decisions) Decide() {
	pkt := d.pkts[d.next]
	if d.next++; d.next == len(d.pkts) {
		d.next = 0
	}
	d.bal.Pick(pkt, d.ports)
}
