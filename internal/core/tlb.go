// Package core implements TLB, the paper's traffic-aware load balancer
// with adaptive granularity. It plugs into the same switch-side
// Balancer interface as the baselines in internal/lb.
//
// Per the paper's design (§3, §5):
//
//   - The switch keeps a flow table driven by SYN/FIN packets plus a
//     periodic idle sweep, giving the live counts of short (m_S) and
//     long (m_L) flows.
//   - Flows are classified by bytes seen: everything starts short and
//     becomes long past a 100 KB threshold.
//   - Every interval t (500 µs) the granularity calculator recomputes
//     the long-flow switching threshold q_th from the queueing model
//     (internal/model, Eq. 9).
//   - The forwarding manager sends every short-flow packet to the
//     shortest queue; a long flow stays on its current uplink until
//     that uplink's queue reaches q_th, then jumps to the shortest
//     queue.
package core

import (
	"math"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/model"
	"tlb/internal/netem"
	"tlb/internal/transport"
	"tlb/internal/units"
)

// Config parameterizes one TLB instance (one per switch): the scheme's
// nine parameters plus the run's environment, from which C, RTT and the
// buffer depth Eq. 9 reads derive; MSS, header size and W_L are the
// transport's constants. NewConfig is the one place it is built.
type Config struct {
	// ShortThreshold is the bytes-seen boundary between short and long
	// flows.
	ShortThreshold units.Bytes
	// Interval is t: both the q_th update period and the idle-flow
	// sampling period.
	Interval units.Time
	// Deadline is D, the short-flow completion budget used by the
	// granularity calculator — the paper uses the 25th percentile of
	// the deadline distribution, including in the deadline-agnostic
	// case.
	Deadline units.Time
	// MeanShortSize is X.
	MeanShortSize units.Bytes
	// FixedQTh, when >= 0, disables the adaptive calculator and pins
	// the threshold — used by the Fig. 7 verification (which sweeps
	// fixed thresholds) and the fixed-granularity ablation.
	FixedQTh int
	// ShortFlowPolicy selects how short-flow packets pick a path
	// (shortest queue by default; alternatives exist for ablations).
	ShortFlowPolicy ShortPolicy
	// ShortHysteresis keeps a short flow on its current uplink while
	// that uplink's backlog is within this many packets of the global
	// minimum. Zero switches on any difference; one (the default)
	// avoids ping-ponging between near-equal queues, which reorders
	// bursts for no queueing gain.
	ShortHysteresis int
	// UncappedLongDemand forwards the flag of the same name to the
	// queueing model: assume longs send W_L per propagation RTT (the
	// paper's literal Eq. 1) instead of capping their demand at line
	// rate. See model.Params.UncappedLongDemand.
	UncappedLongDemand bool
	// DisableSafeSwitch turns off the reordering guard on path
	// switches. By default a flow moves to a faster port only when its
	// idle gap covers the delay difference between the old and new
	// port (gap >= delay(old) - delay(new)): a packet sent now on the
	// new port then cannot overtake the flow's previous packet, so
	// switching never reorders. The guard is what lets TLB switch at
	// packet granularity without tripping TCP's duplicate-ACK
	// machinery, and it is computed purely from local port state. The
	// flag exists for the ablation that quantifies its value.
	DisableSafeSwitch bool

	// Env is the fabric TLB balances for: the per-path bandwidth C, the
	// round-trip propagation delay and the queue capacity that clamps
	// q_th.
	Env lb.Env
}

// Model returns the queueing model's inputs for this configuration on
// a switch with the given equal-cost paths and live flow counts — the
// one translation both the running balancer and Fig. 7's numeric
// curves use.
func (c Config) Model(paths, shorts, longs int) model.Params {
	return model.Params{
		Paths:              paths,
		ShortFlows:         shorts,
		LongFlows:          longs,
		LinkBandwidth:      c.Env.FabricBandwidth,
		RTT:                c.Env.BaseRTT,
		MeanShortSize:      c.MeanShortSize,
		Deadline:           c.Deadline,
		Interval:           c.Interval,
		UncappedLongDemand: c.UncappedLongDemand,
	}
}

// maxQTh is the q_th clamp: the switch buffer size. An unbounded queue
// does not cap it.
func (c Config) maxQTh() int {
	if c.Env.QueueCapacity <= 0 {
		return math.MaxInt32
	}
	return c.Env.QueueCapacity
}

// ShortPolicy enumerates per-packet path policies for short flows.
type ShortPolicy int

// Short-flow path policies.
const (
	// ShortShortestQueue scans all uplinks for the minimum backlog —
	// the paper's design.
	ShortShortestQueue ShortPolicy = iota
	// ShortPowerOfTwo samples two random uplinks and takes the
	// shorter (DRILL-style), trading decision cost for queue accuracy.
	ShortPowerOfTwo
	// ShortRandom sprays uniformly (RPS-style), ignoring queues.
	ShortRandom
)

// Stats exposes TLB-internal counters for experiments and tests.
type Stats struct {
	// Reroutes counts long-flow path switches (granularity events).
	Reroutes int64
	// ShortPackets / LongPackets count forwarding decisions on
	// data-direction packets by flow class; ControlPackets counts
	// header-only reverse traffic (pure ACKs, SYN-ACKs) routed
	// statelessly — kept separate so the Fig. 15a per-packet-cost
	// breakdown does not conflate control routing with short-flow
	// data decisions.
	ShortPackets   int64
	LongPackets    int64
	ControlPackets int64
	// Updates counts q_th recomputations.
	Updates int64
	// Evictions counts idle flow-table removals.
	Evictions int64
}

// flowEntry is one row of the switch flow table.
type flowEntry struct {
	bytes   units.Bytes
	port    int
	long    bool
	hasPort bool
	// lastETA is the latest estimated arrival time of any packet this
	// flow has sent (send time + the chosen port's estimated delay at
	// that moment). A move to another port is reordering-safe exactly
	// when now + newPortDelay >= lastETA.
	lastETA units.Time
}

// escapeFactor overrides the safety guard when the current port is
// drastically worse than the alternative (cur > escapeFactor * cand): a
// flow trapped behind a heavily degraded link (e.g. a de-rated 5 Mbps
// path) accepts one reordering episode to get off it, which is far
// cheaper than staying.
const escapeFactor = 4

// TLB is one switch's balancer instance.
type TLB struct {
	sim   *eventsim.Sim
	rng   *eventsim.RNG
	cfg   Config
	ports []*netem.Port

	flows  lb.FlowTable[flowEntry]
	nShort int
	nLong  int

	qth int

	// hystDelay is ShortHysteresis converted to time (packets times
	// full-segment serialization at line rate), for delay-based
	// comparisons.
	hystDelay units.Time

	ticker *eventsim.Ticker

	stats Stats
}

// New constructs a TLB balancer over the given uplinks and starts its
// periodic granularity updates.
func New(sim *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port, cfg Config) *TLB {
	t := &TLB{
		sim:   sim,
		rng:   rng,
		cfg:   cfg,
		ports: ports,
		flows: lb.NewFlowTable[flowEntry](),
	}
	t.hystDelay = units.Time(cfg.ShortHysteresis) * cfg.Env.FabricBandwidth.TxTime(transport.MSS+transport.HeaderBytes)
	t.qth = t.computeQTh()
	t.ticker = eventsim.NewTicker(sim, cfg.Interval, t.tick)
	t.ticker.Start()
	return t
}

// Name implements lb.Balancer.
func (t *TLB) Name() string { return "tlb" }

// QTh returns the current switching threshold in packets.
func (t *TLB) QTh() int { return t.qth }

// ActiveFlows returns the current (short, long) flow counts.
func (t *TLB) ActiveFlows() (short, long int) { return t.nShort, t.nLong }

// Model returns the queueing model's inputs as of now: the
// configuration applied to this switch's paths and live flow counts.
func (t *TLB) Model() model.Params { return t.cfg.Model(len(t.ports), t.nShort, t.nLong) }

// Stats returns a copy of the internal counters.
func (t *TLB) Stats() Stats { return t.stats }

// Pick implements lb.Balancer: the forwarding manager of §3.
func (t *TLB) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	// Reverse-direction control traffic (ACKs, SYN-ACKs) is routed
	// per packet to the shortest queue but kept out of the flow table:
	// the paper's switch counts flows from the SYN/FIN of the data
	// direction, and an ACK stream is not a flow competing for path
	// capacity.
	if pkt.Kind == netem.Ack || pkt.Kind == netem.SynAck {
		t.stats.ControlPackets++
		return lb.LowestDelay(t.rng, ports)
	}
	now := t.sim.Now()
	e := t.lookup(pkt, now)

	var port int
	if e.long {
		t.stats.LongPackets++
		// Long flow: stick to the current uplink until its queue
		// reaches q_th, then jump to the lowest-delay port — if the
		// move is reorder-safe.
		if !e.hasPort {
			e.port = lb.LowestDelay(t.rng, ports)
			e.hasPort = true
		} else if ports[e.port].Down() {
			// The parked uplink died. Its queue drains and then never
			// grows again (a down port drops at admission), so waiting
			// for q_th would strand the flow in retransmission-timeout
			// loops until the link recovers. Move now, bypassing the
			// reorder guard: the packets on the old path are already
			// lost, so there is nothing left to overtake.
			np := lb.LowestDelay(t.rng, ports)
			if np != e.port {
				t.stats.Reroutes++
				e.port = np
			}
		} else if ports[e.port].QueueLen() >= t.qth {
			np := lb.LowestDelay(t.rng, ports)
			if np != e.port && t.switchSafe(e, now, ports[e.port].EstimatedDelay(), ports[np].EstimatedDelay()) {
				t.stats.Reroutes++
				e.port = np
			}
		}
		port = e.port
	} else {
		t.stats.ShortPackets++
		// Short flow: packet-level path choice (lowest estimated
		// delay, which on a symmetric fabric is the shortest queue of
		// the paper's design). A move must clear two guards: it has to
		// beat the current port by more than the hysteresis margin
		// (equal-cost hopping reorders for no gain), and it has to be
		// reorder-safe (see Config.DisableSafeSwitch).
		port = t.pickShort(ports)
		if e.hasPort && port != e.port && !ports[e.port].Down() {
			// Hysteresis and the reorder guard only apply while the old
			// port is alive; once it is down, anything in flight there
			// is lost and sticking would just feed the fault drop
			// counter.
			cur := ports[e.port].EstimatedDelay()
			cand := ports[port].EstimatedDelay()
			if cur <= cand+t.hystDelay || !t.switchSafe(e, now, cur, cand) {
				port = e.port
			}
		}
		e.port = port
		e.hasPort = true
	}

	if eta := now + ports[port].EstimatedDelay(); eta > e.lastETA {
		e.lastETA = eta
	}
	if pkt.FIN {
		t.uncount(e)
		t.flows.Remove(&pkt.Flow)
	}
	return port
}

// switchSafe reports whether a packet sent now on a port with the
// given estimated delay cannot overtake any of the flow's in-flight
// packets — or whether the flow's current port is so much worse that
// one reordering episode is worth escaping it.
func (t *TLB) switchSafe(e *flowEntry, now, curDelay, candDelay units.Time) bool {
	if t.cfg.DisableSafeSwitch {
		return true
	}
	if now+candDelay >= e.lastETA {
		return true
	}
	return curDelay > escapeFactor*candDelay+t.hystDelay
}

// pickShort applies the configured short-flow policy.
func (t *TLB) pickShort(ports []*netem.Port) int {
	switch t.cfg.ShortFlowPolicy {
	case ShortPowerOfTwo:
		a := t.rng.Intn(len(ports))
		b := t.rng.Intn(len(ports))
		// A live sample beats a dead one regardless of backlog.
		if ports[a].Down() != ports[b].Down() {
			if ports[a].Down() {
				return b
			}
			return a
		}
		if ports[b].EstimatedDelay() < ports[a].EstimatedDelay() {
			return b
		}
		return a
	case ShortRandom:
		return lb.RandomLive(t.rng, ports)
	default:
		return lb.LowestDelay(t.rng, ports)
	}
}

// lookup finds or creates the packet's flow entry and applies the
// byte-count classification.
func (t *TLB) lookup(pkt *netem.Packet, now units.Time) *flowEntry {
	e, _, fresh := t.flows.Get(&pkt.Flow, now)
	if fresh {
		// New flows (first seen on SYN, or mid-flow if the table
		// evicted them) start short.
		t.nShort++
	}
	e.bytes += pkt.Payload
	if !e.long && e.bytes > t.cfg.ShortThreshold {
		e.long = true
		t.nShort--
		t.nLong++
		// The promoted flow keeps the port its last packet used (the
		// paper's rule: forward to the same queue as the last packet).
	}
	return e
}

// uncount takes a flow leaving the table (FIN or idle eviction) out of
// the live counts.
func (t *TLB) uncount(e *flowEntry) {
	if e.long {
		t.nLong--
	} else {
		t.nShort--
	}
}

// evictIdle is the sweep's rule: a flow unseen for a whole interval
// (lost FIN, dead connection) leaves the table.
func (t *TLB) evictIdle(e *flowEntry, idle units.Time) bool {
	if idle < t.cfg.Interval {
		return false
	}
	t.stats.Evictions++
	t.uncount(e)
	return true
}

// tick is the granularity calculator's periodic update: evict idle
// flows and recompute q_th.
func (t *TLB) tick() {
	t.flows.Evict(t.sim.Now(), t.evictIdle)
	t.qth = t.computeQTh()
	t.stats.Updates++
}

// computeQTh evaluates Eq. 9 for the current traffic, in packets.
func (t *TLB) computeQTh() int {
	if t.cfg.FixedQTh >= 0 {
		return min(t.cfg.FixedQTh, t.cfg.maxQTh())
	}
	return t.Model().QThPackets(t.cfg.maxQTh())
}

// Stop halts the periodic updates (used when tearing a simulation down
// before the event queue drains).
func (t *TLB) Stop() { t.ticker.Stop() }
