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

// FlowBenderConfig parameterizes the FlowBender adaptation.
type FlowBenderConfig struct {
	// Window is the congestion observation period (≈ one RTT).
	Window units.Time
	// MarkFraction is the fraction of a flow's packets admitted into
	// ECN-marking queues above which the flow is re-hashed (the
	// original uses the end host's observed ECE fraction; 5% default).
	MarkFraction float64
	// ECNThreshold mirrors the queue marking threshold so the balancer
	// can tell whether the queue it picked would mark.
	ECNThreshold int
}

// FlowBender returns a FlowBender-style balancer: flows are hashed like
// ECMP, but a flow observing persistent congestion on its path for one
// window is re-hashed onto a random other uplink.
//
// Simplification vs the original (Kabbani et al., CoNEXT 2014):
// FlowBender detects congestion at the END HOST from the ECE fraction
// and re-routes by perturbing the TTL that feeds the hardware hash.
// Here the switch itself observes whether the flow's packets are
// entering above-ECN-threshold queues — the same congestion signal,
// seen one hop earlier.
func FlowBender(cfg FlowBenderConfig) Factory {
	if cfg.Window <= 0 {
		cfg.Window = 100 * units.Microsecond
	}
	if cfg.MarkFraction <= 0 {
		cfg.MarkFraction = 0.05
	}
	if cfg.ECNThreshold <= 0 {
		cfg.ECNThreshold = 65
	}
	return func(sim *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		f := &flowBender{
			sim: sim, cfg: cfg, rng: rng,
			seed:  rng.Uint64(),
			flows: make(map[netem.FlowID]*fbFlow),
		}
		f.sweep = newIdleSweep(sim, f.flows, idleTimeout,
			func(st *fbFlow, now units.Time) bool { return now-st.lastSeen >= idleTimeout })
		return f
	}
}

type flowBender struct {
	sim   *eventsim.Sim
	cfg   FlowBenderConfig
	rng   *eventsim.RNG
	seed  uint64
	flows map[netem.FlowID]*fbFlow
	sweep idleSweep
}

type fbFlow struct {
	// offset is added to the hash: incrementing it re-routes the flow,
	// exactly how FlowBender's TTL perturbation works.
	offset      uint64
	windowStart units.Time
	pkts        int
	marked      int
	lastSeen    units.Time
}

func (f *flowBender) Name() string { return "flowbender" }

func (f *flowBender) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	now := f.sim.Now()
	st, ok := f.flows[pkt.Flow]
	if !ok {
		st = &fbFlow{windowStart: now}
		f.flows[pkt.Flow] = st
		f.sweep.arm()
	}
	st.lastSeen = now
	port := int((pkt.Flow.Hash(f.seed) + st.offset*0x9e3779b97f4a7c15) % uint64(len(ports)))

	// Observe congestion on the chosen path.
	st.pkts++
	if ports[port].QueueLen() >= f.cfg.ECNThreshold {
		st.marked++
	}
	if now-st.windowStart >= f.cfg.Window {
		if st.pkts > 0 && float64(st.marked)/float64(st.pkts) > f.cfg.MarkFraction {
			st.offset++ // re-hash: take a different path next packet
		}
		st.windowStart = now
		st.pkts, st.marked = 0, 0
	}
	if pkt.FIN {
		delete(f.flows, pkt.Flow)
	}
	return port
}

// CongaFlowlet returns a congestion-aware flowlet balancer: flowlet
// boundaries like LetFlow, but the new flowlet goes to the uplink with
// the lowest estimated delivery delay instead of a random one.
//
// Simplification vs CONGA (Alizadeh et al., SIGCOMM 2014): CONGA
// aggregates congestion feedback from the destination leaf over each
// path; a Balancer only sees its local uplinks, so this uses the local
// backlog+propagation estimate. On a two-tier fabric whose contention
// sits at the leaf uplinks the two signals coincide.
func CongaFlowlet(gap units.Time) Factory {
	if gap <= 0 {
		gap = 500 * units.Microsecond // CONGA's flowlet timeout
	}
	return func(sim *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		flows := make(map[netem.FlowID]*letflowFlow)
		return &congaFlowlet{sim: sim, gap: gap, rng: rng, flows: flows, sweep: flowletSweep(sim, flows, gap)}
	}
}

type congaFlowlet struct {
	sim   *eventsim.Sim
	gap   units.Time
	rng   *eventsim.RNG
	flows map[netem.FlowID]*letflowFlow
	sweep idleSweep
}

func (c *congaFlowlet) Name() string { return "conga" }

func (c *congaFlowlet) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	now := c.sim.Now()
	f, ok := c.flows[pkt.Flow]
	if !ok {
		f = &letflowFlow{port: LowestDelay(c.rng, ports)}
		c.flows[pkt.Flow] = f
		c.sweep.arm()
	} else if now-f.lastSeen > c.gap {
		f.port = LowestDelay(c.rng, ports)
	}
	f.lastSeen = now
	if pkt.FIN {
		delete(c.flows, pkt.Flow)
	}
	return f.port
}

// HermesConfig parameterizes the Hermes adaptation.
type HermesConfig struct {
	// RerouteBytes is the minimum bytes a flow must send between
	// reroutes (Hermes's sent-threshold; 64 KB default).
	RerouteBytes units.Bytes
	// Degrade is how much worse (multiplicatively) the current path's
	// estimated delay must be than the best before Hermes considers
	// rerouting beneficial (cautious rerouting; 2.0 default).
	Degrade float64
}

// Hermes returns a Hermes-style cautious balancer: a flow is rerouted
// only when (a) it has sent enough bytes since its last move, and
// (b) its current path is markedly worse than the best alternative —
// "reroute only when it will be beneficial".
//
// Simplification vs Hermes (Zhang et al., SIGCOMM 2017): Hermes senses
// path state end-to-end (RTT, ECN fraction, retransmissions) and
// classifies paths as good/gray/bad; this adaptation uses the local
// delay estimate as the path signal and keeps the cautious triggers.
func Hermes(cfg HermesConfig) Factory {
	if cfg.RerouteBytes <= 0 {
		cfg.RerouteBytes = 64 * units.KiB
	}
	if cfg.Degrade <= 1 {
		cfg.Degrade = 2.0
	}
	return func(sim *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		h := &hermes{sim: sim, cfg: cfg, rng: rng, flows: make(map[netem.FlowID]*hermesFlow)}
		h.sweep = newIdleSweep(sim, h.flows, idleTimeout,
			func(f *hermesFlow, now units.Time) bool { return now-f.lastSeen >= idleTimeout })
		return h
	}
}

type hermes struct {
	sim   *eventsim.Sim
	cfg   HermesConfig
	rng   *eventsim.RNG
	flows map[netem.FlowID]*hermesFlow
	sweep idleSweep
}

type hermesFlow struct {
	port      int
	hasPort   bool
	sentSince units.Bytes
	lastSeen  units.Time
}

func (h *hermes) Name() string { return "hermes" }

func (h *hermes) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	f, ok := h.flows[pkt.Flow]
	if !ok {
		f = &hermesFlow{}
		h.flows[pkt.Flow] = f
		h.sweep.arm()
	}
	f.lastSeen = h.sim.Now()
	if !f.hasPort {
		f.port = LowestDelay(h.rng, ports)
		f.hasPort = true
	} else if f.sentSince >= h.cfg.RerouteBytes {
		best := LowestDelay(h.rng, ports)
		cur := ports[f.port].EstimatedDelay()
		cand := ports[best].EstimatedDelay()
		// Cautious: move only on a clear win.
		if best != f.port && float64(cur) > h.cfg.Degrade*float64(cand) {
			f.port = best
			f.sentSince = 0
		}
	}
	f.sentSince += pkt.Wire
	if pkt.FIN {
		delete(h.flows, pkt.Flow)
	}
	return f.port
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

func (w *wcmp) Name() string { return "wcmp" }

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
