package netem

import (
	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// Handler consumes packets delivered by the network.
type Handler func(*Packet)

// LinkConfig describes one directed link.
type LinkConfig struct {
	Bandwidth units.Bandwidth
	Delay     units.Time // one-way propagation delay
}

// Port is a switch (or host NIC) output: a FIFO queue drained by a
// directed link. Because the queue is FIFO, every packet's service
// start, service end and delivery time are known the moment it is
// admitted; the queue evaluates its own occupancy lazily from the
// precomputed service times.
//
// Delivery scheduling is batched: the port keeps at most one engine
// event pending — for its oldest undelivered packet — and re-arms it
// for the next packet when that one fires, instead of holding one
// event per in-flight packet. Each packet's position within its
// delivery instant is fixed at admission by a DeliveryKey — a value in
// the engine's keyed ordering domain (eventsim.Sim.AtKey) built from
// the admission time and the port's construction-order index. The key
// is a pure function of the traffic and the topology, never of
// scheduling history, so simultaneous deliveries at different ports
// order the same way however the events that admitted them were
// scheduled. Within one port the key is monotone in admission order (FIFO), so
// the single re-armed event always fires for the queue head.
//
// A link's rate and delay are fixed at construction; SetDown fails the
// port mid-run and revives it (see internal/faults), which applies at
// admission — packets already committed to the wire still deliver.
//
// Field order is part of the performance contract (layout_test.go pins
// it): a k=16 fat-tree has 6 144 ports and touches two of them per
// packet-hop, each long evicted since its last use, so what a hop costs
// is how many of a port's cache lines it pulls. Everything portDeliver
// touches — the event flag, the handler, the engine, the packet chain
// and its waiting count — is the first 64 bytes; what Send adds for
// every packet, and the fault-drop count it writes instead on a down
// link, is the second; the counters only a non-empty queue, a buffer
// drop or a mark writes, and the label, are the third. The struct is
// 192 bytes, a size class the allocator hands out 64-aligned, so those
// offsets are real line boundaries.
type Port struct {
	// evPending reports whether the single delivery event for the queue
	// head is currently scheduled (ports never cancel deliveries, so a
	// bool suffices — no handle is kept).
	evPending bool
	// down marks a failed link: Send drops at admission, like a pulled
	// cable, and liveness-aware balancers route around the port.
	down bool
	// idx is the port's construction-order index (eventsim.ReserveKeyedID):
	// the port's identity inside every DeliveryKey.
	idx uint32
	dst Handler
	sim *eventsim.Sim
	// head and tail chain the admitted, undelivered packets in FIFO
	// order through Packet.next (tail means nothing while head is nil);
	// firstWaiting is the oldest whose service has not begun as of the
	// last advance, and waiting counts it and those behind it.
	head, tail   *Packet
	firstWaiting *Packet
	waiting      int32
	maxLen       int32 // QueueStats.MaxLen
	// waitingBytes is the wire-byte occupancy of the waiting part.
	waitingBytes units.Bytes

	link LinkConfig
	// lastFinish is when the most recently admitted packet finishes
	// serializing; the next packet starts at max(now, lastFinish).
	lastFinish units.Time
	// busyNs accumulates serialization time for utilization accounting.
	busyNs units.Time
	// capacity and ecnThreshold are the QueueConfig.
	capacity, ecnThreshold int32
	enqueued               int64
	bytesIn                units.Bytes
	faultDropped           int64

	sumLenOnArrival int64
	dropped         int64
	marked          int64
	// label is a human-readable identity for traces and tests.
	label string

	// Pad 168 bytes of fields to the 192-byte size class.
	_ [24]byte
}

// NewPort wires a queue to a link ending at dst. Each port draws a
// construction-order index from its engine; two builds that construct
// ports in the same order assign the same indices, and so the same
// DeliveryKey ordering.
func NewPort(sim *eventsim.Sim, link LinkConfig, qcfg QueueConfig, dst Handler, label string) *Port {
	if link.Bandwidth <= 0 {
		panic("netem: port with non-positive bandwidth")
	}
	idx := sim.ReserveKeyedID()
	if idx >= MaxKeyedIDs {
		panic("netem: port index overflows DeliveryKey packing (raise deliveryPortBits)")
	}
	capacity, ecnThreshold := int32(qcfg.Capacity), int32(qcfg.ECNThreshold)
	if int(capacity) != qcfg.Capacity || int(ecnThreshold) != qcfg.ECNThreshold {
		panic("netem: queue capacity or ECN threshold overflows 32 bits")
	}
	return &Port{sim: sim, link: link, capacity: capacity, ecnThreshold: ecnThreshold, dst: dst, label: label, idx: idx}
}

// DeliveryKey packing: the low deliveryPortBits carry the port index,
// the admission timestamp sits above it, and the engine's KeyDomain
// bit tops the word. 20 index bits allow a million ports; the 43
// remaining timestamp bits cover ~2.4 simulated hours, far beyond any
// scenario here (the guard panic says how to rebalance if that ever
// changes). A queued packet's stamp reuses the index field for its wire
// size (queue.go), so it also bounds a packet at 1 MB on the wire.
const (
	deliveryPortBits = 20
	maxKeyedTime     = units.Time(1) << (63 - deliveryPortBits)
)

// MaxKeyedIDs is how many keyed identities (eventsim.Sim.ReserveKeyedID:
// one per port, and one per host for its receiver-close key) fit the
// index field of a DeliveryKey. A fabric that needs more cannot run on
// one engine; topology validation rejects it before building anything.
const MaxKeyedIDs = 1 << deliveryPortBits

// DeliveryKey builds the keyed-domain ordering key for a packet
// admitted at admittedAt on the port with the given index. Ordering
// simultaneous deliveries by (admission time, port index) — rather
// than by engine scheduling history — is what makes the event order a
// pure function of the traffic.
func DeliveryKey(admittedAt units.Time, port uint32) uint64 {
	if admittedAt >= maxKeyedTime {
		panic("netem: simulated time overflows DeliveryKey packing (lower deliveryPortBits)")
	}
	return eventsim.KeyDomain | uint64(admittedAt)<<deliveryPortBits | uint64(port)
}

// Queue exposes the port's queue (read-mostly: load balancers consult
// Len; tests consult Stats).
func (p *Port) Queue() *Queue { return (*Queue)(p) }

// QueueLen is the current backlog in packets, the signal every
// queue-length-based load balancer in this repo consults.
func (p *Port) QueueLen() int { return p.Queue().Len(p.sim.Now()) }

// Link returns the link configuration.
func (p *Port) Link() LinkConfig { return p.link }

// Down reports whether the port's link is failed.
func (p *Port) Down() bool { return p.down }

// SetDown fails (true) or revives (false) the port's link. While down,
// Send drops every packet at admission and counts it in
// QueueStats.FaultDropped. Packets admitted before the failure were
// already committed to the wire and still deliver — the model drops at
// admission, not in flight.
func (p *Port) SetDown(down bool) { p.down = down }

// Label returns the port's diagnostic name.
func (p *Port) Label() string { return p.label }

// BusyTime returns the cumulative serialization time, from which
// utilization over an interval is computed.
func (p *Port) BusyTime() units.Time { return p.busyNs }

// refWire is the reference packet size EstimatedDelay charges for the
// packet being placed: a full-size frame. Without this term an *empty*
// slow port looks as cheap as an empty fast one — the asymmetry only
// shows once the packet itself serializes.
const refWire units.Bytes = 1500

// EstimatedDelay returns the time a full-size packet enqueued now would
// take to reach the far end: the committed backlog's remaining
// serialization time, its own serialization time, and the link's
// propagation delay. Unlike the raw queue length, this is comparable
// across ports of different speeds and delays, which is what a load
// balancer needs on an asymmetric fabric. (All inputs — port rate,
// configured link delay and the admission-time service schedule — are
// local switch knowledge.) Across equal-speed ports the own-packet term
// is a shared constant, so orderings there match the queue-length
// comparison.
//
// The backlog term is lastFinish − now: exactly when the wire goes
// idle. This charges the residual serialization of the in-service
// packet too — a port midway through a large frame on a slow link is
// not as cheap as an empty one — and stays exact across mid-run rate
// changes, because each packet's finish time was fixed at admission.
func (p *Port) EstimatedDelay() units.Time {
	d := p.link.Delay + p.link.Bandwidth.TxTime(refWire)
	if resid := p.lastFinish - p.sim.Now(); resid > 0 {
		d += resid
	}
	return d
}

// Send enqueues the packet for transmission. It reports false when the
// packet was dropped at the queue, or dropped at admission because the
// link is down.
func (p *Port) Send(pkt *Packet) bool {
	if p.down {
		p.faultDropped++
		return false
	}
	now := p.sim.Now()
	start := now
	if p.lastFinish > start {
		start = p.lastFinish
	}
	tx := p.link.Bandwidth.TxTime(pkt.Wire)
	finish := start + tx
	deliverAt := finish + p.link.Delay
	// The packet's position within its delivery instant is fixed now
	// (its key is a function of the admission time) and recorded with
	// the packet; an engine event is only materialized below if
	// none is pending — the port re-arms for the next packet when the
	// current delivery fires.
	if !p.admit(pkt, now, start, deliverAt) {
		return false
	}
	p.lastFinish = finish
	p.busyNs += tx
	if !p.evPending {
		at, key := p.headDelivery()
		p.sim.AtKey(at, key, portDeliver, p)
		p.evPending = true
	}
	return true
}

// portDeliver is the delivery callback shared by every port and every
// packet: scheduled through AtKey with the port as the argument (a
// pointer, so the any-conversion does not allocate), it keeps Send
// closure-free. Deliveries fire in FIFO order, so it always pops the
// head, then re-arms the port's single event for the next undelivered
// packet at its admission-fixed (time, key) position. The pop happens
// before the handler runs so a handler that sends on this same port
// sees a consistent queue (its Send re-arms the event; the check after
// the handler then skips).
func portDeliver(arg any) {
	p := arg.(*Port)
	p.evPending = false
	p.dst(p.popDelivered())
	if !p.evPending && p.head != nil {
		at, key := p.headDelivery()
		p.sim.AtKey(at, key, portDeliver, p)
		p.evPending = true
	}
}
