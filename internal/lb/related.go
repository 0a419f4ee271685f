package lb

import (
	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// This file implements switch-local adaptations of the related-work
// schemes the paper's §8 discusses beyond its four headline baselines.
// Each is documented with what was simplified relative to the original
// system (most of the originals involve end-host or cross-switch
// machinery this simulator's switch-local Balancer interface does not
// see).

// FlowBender's congestion observation period (≈ one RTT) and the
// fraction of a flow's packets admitted into ECN-marking queues above
// which the flow is re-hashed (the original uses the end host's
// observed ECE fraction).
const (
	flowBenderWindow       = 100 * units.Microsecond
	flowBenderMarkFraction = 0.05
)

// FlowBender returns a FlowBender-style balancer: flows are hashed like
// ECMP, but a flow observing persistent congestion on its path for one
// window is re-hashed onto a random other uplink. ecnThreshold mirrors
// the fabric's queue marking threshold, so the balancer can tell
// whether the queue it picked would mark (0: the queues never mark and
// no flow is ever re-hashed).
//
// Simplification vs the original (Kabbani et al., CoNEXT 2014):
// FlowBender detects congestion at the END HOST from the ECE fraction
// and re-routes by perturbing the TTL that feeds the hardware hash.
// Here the switch itself observes whether the flow's packets are
// entering above-ECN-threshold queues — the same congestion signal,
// seen one hop earlier.
func FlowBender(ecnThreshold int) Factory {
	return func(sim *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		return &flowBender{
			sim: sim, rng: rng, ecnThreshold: ecnThreshold,
			seed:  rng.Uint64(),
			flows: newIdleTable[fbFlow](sim),
		}
	}
}

type flowBender struct {
	sim          *eventsim.Sim
	rng          *eventsim.RNG
	ecnThreshold int
	seed         uint64
	flows        *sweptTable[fbFlow]
}

type fbFlow struct {
	// offset is added to the hash: incrementing it re-routes the flow,
	// exactly how FlowBender's TTL perturbation works.
	offset      uint64
	windowStart units.Time
	pkts        int
	marked      int
}

func (f *flowBender) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	now := f.sim.Now()
	st, _, fresh := f.flows.Get(&pkt.Flow, now)
	if fresh {
		f.flows.arm()
		st.windowStart = now
	}
	port := int((pkt.Flow.Hash(f.seed) + st.offset*0x9e3779b97f4a7c15) % uint64(len(ports)))

	// Observe congestion on the chosen path.
	st.pkts++
	if f.ecnThreshold > 0 && ports[port].QueueLen() >= f.ecnThreshold {
		st.marked++
	}
	if now-st.windowStart >= flowBenderWindow {
		if st.pkts > 0 && float64(st.marked)/float64(st.pkts) > flowBenderMarkFraction {
			st.offset++ // re-hash: take a different path next packet
		}
		st.windowStart = now
		st.pkts, st.marked = 0, 0
	}
	if pkt.FIN {
		f.flows.Remove(&pkt.Flow)
	}
	return port
}

// congaGap is CONGA's flowlet timeout.
const congaGap = 500 * units.Microsecond

// CongaFlowlet returns a congestion-aware flowlet balancer: flowlet
// boundaries like LetFlow, but the new flowlet goes to the uplink with
// the lowest estimated delivery delay instead of a random one.
//
// Simplification vs CONGA (Alizadeh et al., SIGCOMM 2014): CONGA
// aggregates congestion feedback from the destination leaf over each
// path; a Balancer only sees its local uplinks, so this uses the local
// backlog+propagation estimate. On a two-tier fabric whose contention
// sits at the leaf uplinks the two signals coincide.
func CongaFlowlet() Factory {
	return func(sim *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		return &congaFlowlet{sim: sim, gap: congaGap, rng: rng, flows: newFlowletTable(sim, congaGap)}
	}
}

type congaFlowlet struct {
	sim   *eventsim.Sim
	gap   units.Time
	rng   *eventsim.RNG
	flows *sweptTable[flowlet]
}

func (c *congaFlowlet) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	now := c.sim.Now()
	f, prev, fresh := c.flows.Get(&pkt.Flow, now)
	if fresh {
		c.flows.arm()
	}
	if fresh || now-prev > c.gap {
		f.port = LowestDelay(c.rng, ports)
	}
	port := f.port
	if pkt.FIN {
		c.flows.Remove(&pkt.Flow)
	}
	return port
}

// Hermes's cautious-rerouting triggers: the minimum bytes a flow must
// send between reroutes (its sent-threshold), and how much worse
// (multiplicatively) the current path's estimated delay must be than
// the best before a reroute counts as beneficial.
const (
	hermesRerouteBytes = 64 * units.KiB
	hermesDegrade      = 2.0
)

// Hermes returns a Hermes-style cautious balancer: a flow is rerouted
// only when (a) it has sent enough bytes since its last move, and
// (b) its current path is markedly worse than the best alternative —
// "reroute only when it will be beneficial".
//
// Simplification vs Hermes (Zhang et al., SIGCOMM 2017): Hermes senses
// path state end-to-end (RTT, ECN fraction, retransmissions) and
// classifies paths as good/gray/bad; this adaptation uses the local
// delay estimate as the path signal and keeps the cautious triggers.
func Hermes() Factory {
	return func(sim *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		return &hermes{sim: sim, rerouteBytes: hermesRerouteBytes, rng: rng, flows: newIdleTable[hermesFlow](sim)}
	}
}

type hermes struct {
	sim          *eventsim.Sim
	rerouteBytes units.Bytes
	rng          *eventsim.RNG
	flows        *sweptTable[hermesFlow]
}

type hermesFlow struct {
	port      int
	sentSince units.Bytes
}

func (h *hermes) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	f, _, fresh := h.flows.Get(&pkt.Flow, h.sim.Now())
	if fresh {
		h.flows.arm()
		f.port = LowestDelay(h.rng, ports)
	} else if f.sentSince >= h.rerouteBytes {
		best := LowestDelay(h.rng, ports)
		cur := ports[f.port].EstimatedDelay()
		cand := ports[best].EstimatedDelay()
		// Cautious: move only on a clear win.
		if best != f.port && float64(cur) > hermesDegrade*float64(cand) {
			f.port = best
			f.sentSince = 0
		}
	}
	f.sentSince += pkt.Wire
	port := f.port
	if pkt.FIN {
		h.flows.Remove(&pkt.Flow)
	}
	return port
}

// WCMP returns weighted-cost multipath: static per-flow hashing like
// ECMP, but the hash space is split proportionally to each uplink's
// configured bandwidth, so a half-rate link receives half the flows.
// This is the standard answer to *known, static* bandwidth asymmetry.
func WCMP() Factory {
	return func(_ *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) Balancer {
		w := &wcmp{seed: rng.Uint64()}
		var total int64
		for _, p := range ports {
			total += int64(p.Link().Bandwidth)
		}
		acc := int64(0)
		w.cum = make([]int64, len(ports))
		for i, p := range ports {
			acc += int64(p.Link().Bandwidth)
			w.cum[i] = acc
		}
		w.total = total
		return w
	}
}

type wcmp struct {
	seed  uint64
	cum   []int64
	total int64
}

func (w *wcmp) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	if w.total <= 0 {
		return 0
	}
	x := int64(pkt.Flow.Hash(w.seed) % uint64(w.total))
	for i, c := range w.cum {
		if x < c {
			return i
		}
	}
	return len(ports) - 1
}
