// Package netem models the data plane: packets, drop-tail FIFO queues
// with ECN marking, and links with bandwidth serialization and
// propagation delay, composed into switch output ports.
//
// The fidelity target is NS2-style packet-level simulation: every data
// segment and ACK is an individual packet that is enqueued, serialized
// at line rate, propagated, and delivered — so queue lengths, drops,
// ECN marks and reordering emerge from the same mechanisms the paper's
// evaluation measures.
package netem

import (
	"fmt"

	"tlb/internal/units"
)

// FlowID identifies a transport flow. Src and Dst are host indices;
// Port disambiguates concurrent flows between the same pair. ACKs of a
// flow carry the same FlowID as its data with Reverse set, so switches
// can attribute every packet to a five-tuple.
type FlowID struct {
	Src, Dst int
	Port     int
}

// Reversed returns the FlowID as seen from the opposite direction.
func (f FlowID) Reversed() FlowID {
	return FlowID{Src: f.Dst, Dst: f.Src, Port: f.Port}
}

func (f FlowID) String() string {
	return fmt.Sprintf("%d->%d#%d", f.Src, f.Dst, f.Port)
}

// Hash returns a deterministic 64-bit hash of the flow identity mixed
// with a per-switch seed — this is the "flow hash" ECMP uses. FNV-1a
// over the three ints keeps it allocation-free.
func (f FlowID) Hash(seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for _, v := range [3]uint64{uint64(f.Src), uint64(f.Dst), uint64(f.Port)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// Kind distinguishes the packet types the transport layer exchanges.
type Kind uint8

const (
	// Data carries payload bytes [Seq, Seq+Payload).
	Data Kind = iota
	// Ack carries a cumulative acknowledgement in Ack.
	Ack
	// Syn opens a connection (client -> server).
	Syn
	// SynAck acknowledges a Syn (server -> client).
	SynAck
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Syn:
		return "SYN"
	case SynAck:
		return "SYNACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Packet is one unit on the wire. Packets are passed by pointer through
// the fabric and must not be mutated after being handed to a port,
// except for the congestion-experienced bit which queues set. While a
// port holds a packet the packet is that port's queue entry: the port
// owns its linkage fields (next, serviceStart, deliverAt, stamp) and
// its queued flag, and handing a queued packet to a second port, or
// releasing it to the pool, panics instead of splicing two FIFOs.
//
// A packet knows where it is going: the endpoint that emits it stamps
// To, and the receiving host dispatches through that word instead of
// looking Flow — still what switches route and hash on — up.
//
// Field order is part of the performance contract (layout_test.go pins
// it): the fields every hop touches — Flow for routing and hashing,
// Seq/Wire/Ack for forwarding and byte accounting, QueueDelay plus all
// the single-byte flags for admission — pack into the first 64 bytes;
// the queue linkage shares the second line with the admission-stamped
// stats and with To, so a port walking its chain reads that line alone
// and the last hop's delivery has just loaded the word the host
// dispatches on; and the cold SACK block array sits last.
type Packet struct {
	Flow FlowID
	// Seq is the first payload byte for Data packets.
	Seq units.Bytes
	// Wire is the total on-wire size including headers; serialization
	// and queue occupancy are charged per packet but byte counters use
	// Wire.
	Wire units.Bytes
	// Ack is the cumulative acknowledgement (next expected byte) on
	// Ack/SynAck packets.
	Ack units.Bytes
	// QueueDelay accumulates time spent waiting in queues across all
	// hops; ports add to it at dequeue. The receiver folds it into the
	// per-flow queueing-delay statistics (paper Fig. 3a, Fig. 8b).
	QueueDelay units.Time

	Kind Kind
	// SackCount says how many SackBlocks entries are valid.
	SackCount uint8
	// CE is the ECN congestion-experienced bit, set by a queue whose
	// length exceeds its marking threshold.
	CE bool
	// ECNEcho on an ACK echoes the CE bit of the data packet it
	// acknowledges (per-packet echo, as DCTCP requires).
	ECNEcho bool
	// FIN marks the last data packet of a flow, standing in for the TCP
	// FIN the paper's switch uses to decrement its flow counters.
	FIN bool
	// Retransmit marks retransmitted segments (excluded from
	// reordering stats, since their displacement is intentional).
	Retransmit bool
	// pooled guards PacketPool ownership: true while the packet sits
	// in a freelist, so a double release panics instead of silently
	// aliasing two live packets onto one struct.
	pooled bool
	// queued guards port ownership the same way: true from admission
	// to delivery.
	queued bool

	// The holding port's queue entry: the next packet behind this one,
	// when this one starts serializing and reaches the far end, and the
	// DeliveryKey built at admission that fixes its tie-break position
	// among same-instant events — with the key's port-index field, the
	// same for every packet of one port (which ORs it back in), lent to
	// the wire size, so the occupancy accounting reads this line only.
	next         *Packet
	serviceStart units.Time
	deliverAt    units.Time
	stamp        uint64
	// Payload is the number of payload bytes (0 for pure ACK/SYN).
	Payload units.Bytes
	// SentAt is when the transport first handed the packet to the
	// network; used for delay accounting.
	SentAt units.Time
	// MaxQueueSeen is the largest queue length (in packets, excluding
	// this packet) encountered on admission at any hop — the
	// "queueing length experienced by each packet" of Fig. 3a.
	MaxQueueSeen int
	// To is the endpoint the packet is addressed to; a host drops a
	// packet addressed to nobody. PacketPool.Put clears it.
	To *Endpoint

	// SackBlocks carries up to 3 selective-acknowledgement ranges
	// (start inclusive, end exclusive) when the transport has SACK
	// enabled; SackCount says how many are valid.
	SackBlocks [3]SackBlock
}

// Endpoint is a transport endpoint as the data plane sees it. The
// transport embeds one in each sender and receiver and stamps its peer's
// address into every packet it emits.
type Endpoint struct {
	Host  int // the host it lives on; delivery anywhere else is a misroute
	Owner any // the endpoint object, opaque here, for that host to dispatch on
}

// SackBlock is one selectively-acknowledged byte range [Start, End).
type SackBlock struct {
	Start, End units.Bytes
}

// IsShortHeader reports whether the packet is a header-only packet
// (ACK or handshake), which load balancers may treat differently.
func (p *Packet) IsShortHeader() bool {
	return p.Kind != Data
}
