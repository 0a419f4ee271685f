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
	"sort"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/model"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Config parameterizes one TLB instance (one per switch).
type Config struct {
	// ShortThreshold is the bytes-seen boundary between short and long
	// flows (100 KB in the paper).
	ShortThreshold units.Bytes
	// Interval is t: both the q_th update period and the idle-flow
	// sampling period (500 µs in the paper's NS2 setup).
	Interval units.Time
	// Deadline is D, the short-flow completion budget used by the
	// granularity calculator — the paper uses the 25th percentile of
	// the deadline distribution, including in the deadline-agnostic
	// case.
	Deadline units.Time
	// MeanShortSize is X. When EstimateShortSize is false this static
	// value is used; otherwise it seeds an online EWMA over the sizes
	// of finished short flows.
	MeanShortSize units.Bytes
	// EstimateShortSize switches X to the online estimate.
	EstimateShortSize bool
	// LongWindow is W_L, the receive-buffer cap of long flows (64 KB).
	LongWindow units.Bytes
	// RTT is the fabric round-trip propagation delay.
	RTT units.Time
	// LinkBandwidth is the per-path bottleneck bandwidth C.
	LinkBandwidth units.Bandwidth
	// MSS converts bytes to packets for the model.
	MSS units.Bytes
	// MaxQTh clamps q_th (packets); typically the switch buffer size.
	MaxQTh int
	// FixedQTh, when >= 0, disables the adaptive calculator and pins
	// the threshold — used by the Fig. 7 verification (which sweeps
	// fixed thresholds) and the fixed-granularity ablation.
	FixedQTh int
	// ShortFlowPolicy selects how short-flow packets pick a path
	// (shortest queue by default; alternatives exist for ablations).
	ShortFlowPolicy ShortPolicy
	// ShortHysteresis keeps a short flow on its current uplink while
	// that uplink's backlog is within this many packets of the global
	// minimum. Zero switches on any difference; one (the default via
	// DefaultConfig) avoids ping-ponging between near-equal queues,
	// which reorders bursts for no queueing gain.
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
	// EscapeFactor overrides the safety guard when the current port is
	// drastically worse than the alternative (cur > EscapeFactor *
	// cand): a flow trapped behind a heavily degraded link (e.g. a
	// de-rated 5 Mbps path) accepts one reordering episode to get off
	// it, which is far cheaper than staying. 0 derives the default
	// (4); negative disables the escape.
	EscapeFactor float64
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

// DefaultConfig mirrors the paper's NS2 parameters.
func DefaultConfig() Config {
	return Config{
		ShortThreshold:  100 * units.KB,
		Interval:        500 * units.Microsecond,
		Deadline:        10 * units.Millisecond, // 25th pct of U[5ms,25ms]
		MeanShortSize:   70 * units.KB,
		LongWindow:      64 * units.KiB,
		RTT:             100 * units.Microsecond,
		LinkBandwidth:   units.Gbps,
		MSS:             1460,
		MaxQTh:          256,
		FixedQTh:        -1,
		ShortHysteresis: 1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ShortThreshold <= 0 {
		c.ShortThreshold = d.ShortThreshold
	}
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.Deadline <= 0 {
		c.Deadline = d.Deadline
	}
	if c.MeanShortSize <= 0 {
		c.MeanShortSize = d.MeanShortSize
	}
	if c.LongWindow <= 0 {
		c.LongWindow = d.LongWindow
	}
	if c.RTT <= 0 {
		c.RTT = d.RTT
	}
	if c.LinkBandwidth <= 0 {
		c.LinkBandwidth = d.LinkBandwidth
	}
	if c.MSS <= 0 {
		c.MSS = d.MSS
	}
	if c.MaxQTh <= 0 {
		c.MaxQTh = d.MaxQTh
	}
	return c
}

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
	bytes    units.Bytes
	port     int
	long     bool
	lastSeen units.Time
	hasPort  bool
	// lastETA is the latest estimated arrival time of any packet this
	// flow has sent (send time + the chosen port's estimated delay at
	// that moment). A move to another port is reordering-safe exactly
	// when now + newPortDelay >= lastETA.
	lastETA units.Time
}

// TLB is one switch's balancer instance.
type TLB struct {
	sim   *eventsim.Sim
	rng   *eventsim.RNG
	cfg   Config
	ports []*netem.Port

	flows  map[netem.FlowID]*flowEntry
	nShort int
	nLong  int

	qth int

	// hystDelay is ShortHysteresis converted to time (packets times
	// MSS serialization at line rate), for delay-based comparisons.
	hystDelay units.Time

	// Online mean short-flow size estimate (EWMA over flows that
	// terminate below the long threshold).
	estShortSize float64

	ticker *eventsim.Ticker

	stats Stats
}

// New constructs a TLB balancer over the given uplinks and starts its
// periodic granularity updates.
func New(sim *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port, cfg Config) *TLB {
	c := cfg.withDefaults()
	//simlint:allow floateq(0 is the exact "derive the default" config sentinel, never a computed value)
	if c.EscapeFactor == 0 {
		c.EscapeFactor = 4
	}
	t := &TLB{
		sim:          sim,
		rng:          rng,
		cfg:          c,
		ports:        ports,
		flows:        make(map[netem.FlowID]*flowEntry),
		estShortSize: float64(c.MeanShortSize),
	}
	t.hystDelay = units.Time(c.ShortHysteresis) * c.LinkBandwidth.TxTime(c.MSS+40)
	t.qth = t.computeQTh()
	t.ticker = eventsim.NewTicker(sim, c.Interval, t.tick)
	t.ticker.Start()
	return t
}

// Factory adapts TLB to the lb.Factory signature used by topology.
func Factory(cfg Config) lb.Factory {
	return func(sim *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) lb.Balancer {
		return New(sim, rng, ports, cfg)
	}
}

// Name implements lb.Balancer.
func (t *TLB) Name() string { return "tlb" }

// QTh returns the current switching threshold in packets.
func (t *TLB) QTh() int { return t.qth }

// ActiveFlows returns the current (short, long) flow counts.
func (t *TLB) ActiveFlows() (short, long int) { return t.nShort, t.nLong }

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
	e, _ := t.lookup(pkt, now)

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
		t.remove(pkt.Flow, e, true)
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
	return t.cfg.EscapeFactor > 0 &&
		float64(curDelay) > t.cfg.EscapeFactor*float64(candDelay)+float64(t.hystDelay)
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
// byte-count classification. It also returns when the flow's previous
// packet was seen (for burst detection).
func (t *TLB) lookup(pkt *netem.Packet, now units.Time) (*flowEntry, units.Time) {
	e, ok := t.flows[pkt.Flow]
	if !ok {
		// New flows (first seen on SYN, or mid-flow if the table
		// evicted them) start short.
		e = &flowEntry{}
		t.flows[pkt.Flow] = e
		t.nShort++
	}
	prevSeen := e.lastSeen
	e.lastSeen = now
	e.bytes += pkt.Payload
	if !e.long && e.bytes > t.cfg.ShortThreshold {
		e.long = true
		t.nShort--
		t.nLong++
		// The promoted flow keeps the port its last packet used (the
		// paper's rule: forward to the same queue as the last packet).
	}
	return e, prevSeen
}

// remove drops a flow-table entry. completed says the flow ended with
// a FIN; idle evictions pass false so that the partial byte counts of
// stalled or dead flows do not bias the short-size estimate X (and
// through it q_th, Eq. 9) downward.
func (t *TLB) remove(id netem.FlowID, e *flowEntry, completed bool) {
	if e.long {
		t.nLong--
	} else {
		t.nShort--
		if completed && t.cfg.EstimateShortSize && e.bytes > 0 {
			// EWMA of completed short-flow sizes (g = 1/8).
			t.estShortSize = 0.875*t.estShortSize + 0.125*float64(e.bytes)
		}
	}
	delete(t.flows, id)
}

// tick is the granularity calculator's periodic update: evict idle
// flows (lost FINs, dead connections) and recompute q_th. The sweep
// visits flows in sorted FlowID order: eviction itself is order-free
// today, but a fixed order keeps any future side effect (logging,
// estimator updates) deterministic by construction.
func (t *TLB) tick() {
	now := t.sim.Now()
	for _, id := range t.sortedFlowIDs() {
		if e := t.flows[id]; now-e.lastSeen >= t.cfg.Interval {
			t.stats.Evictions++
			t.remove(id, e, false)
		}
	}
	t.qth = t.computeQTh()
	t.stats.Updates++
}

// sortedFlowIDs returns the flow-table keys ordered by (Src, Dst,
// Port), the canonical iteration order for flow-table sweeps.
func (t *TLB) sortedFlowIDs() []netem.FlowID {
	ids := make([]netem.FlowID, 0, len(t.flows))
	//simlint:allow maporder(keys are collected here and sorted below before any use)
	for id := range t.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return flowIDLess(ids[i], ids[j]) })
	return ids
}

// flowIDLess orders FlowIDs lexicographically by (Src, Dst, Port).
func flowIDLess(a, b netem.FlowID) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.Port < b.Port
}

// computeQTh evaluates Eq. 9 for the current traffic, in packets.
func (t *TLB) computeQTh() int {
	if t.cfg.FixedQTh >= 0 {
		if t.cfg.FixedQTh > t.cfg.MaxQTh {
			return t.cfg.MaxQTh
		}
		return t.cfg.FixedQTh
	}
	x := units.Bytes(t.estShortSize)
	if !t.cfg.EstimateShortSize {
		x = t.cfg.MeanShortSize
	}
	p := model.Params{
		Paths:              len(t.ports),
		ShortFlows:         t.nShort,
		LongFlows:          t.nLong,
		LinkBandwidth:      t.cfg.LinkBandwidth,
		RTT:                t.cfg.RTT,
		MeanShortSize:      x,
		LongWindow:         t.cfg.LongWindow,
		Deadline:           t.cfg.Deadline,
		Interval:           t.cfg.Interval,
		MSS:                t.cfg.MSS,
		UncappedLongDemand: t.cfg.UncappedLongDemand,
	}
	q := p.QTh()
	if math.IsInf(q, 1) || q > float64(t.cfg.MaxQTh) {
		return t.cfg.MaxQTh
	}
	return int(math.Ceil(q))
}

// Stop halts the periodic updates (used when tearing a simulation down
// before the event queue drains).
func (t *TLB) Stop() { t.ticker.Stop() }
