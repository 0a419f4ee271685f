package netem

import (
	"tlb/internal/units"
)

// QueueConfig parameterizes a drop-tail FIFO queue. Both values are
// stored in 32 bits (Port's layout); NewPort panics on one that does
// not fit and topology.Config.Validate rejects it as an error.
type QueueConfig struct {
	// Capacity is the buffer size in packets (the unit the paper and
	// NS2 use). Zero or negative means unbounded.
	Capacity int
	// ECNThreshold K: an arriving packet is CE-marked when the queue
	// already holds >= K waiting packets. Zero disables marking.
	ECNThreshold int
}

// QueueStats accumulates per-queue counters for the whole run.
type QueueStats struct {
	Enqueued int64
	Dropped  int64
	Marked   int64
	MaxLen   int
	BytesIn  units.Bytes
	BytesOut units.Bytes
	Dequeued int64
	// FaultDropped counts packets dropped at admission because the
	// port's link was down (internal/faults), kept separate from
	// Dropped so buffer-overflow statistics are not polluted by
	// injected failures.
	FaultDropped int64
	// SumLenOnArrival sums the queue length seen by each arriving
	// packet (before it joins); with Enqueued+Dropped it yields the
	// mean queue length experienced by arrivals — the quantity Fig. 3a
	// plots the distribution of.
	SumLenOnArrival int64
}

// stampWireMask selects the wire-size field of a stamp.
const stampWireMask = 1<<deliveryPortBits - 1

// stampWire is the packet's wire size as its stamp carries it: the
// occupancy accounting walks queued packets through the cache line
// that holds next and serviceStart, and Wire sits on the other one.
func (p *Packet) stampWire() units.Bytes { return units.Bytes(p.stamp & stampWireMask) }

// Queue is a port's drop-tail FIFO with ECN marking, seen on its own:
// the same memory as the Port (Port.Queue converts the pointer), with
// the occupancy and counter reads load balancers, tests and the
// benchmark harness use. The queue is the chain of admitted,
// undelivered packets itself — each Packet carries its own link,
// service-start and delivery times and stamp — and its occupancy is
// evaluated lazily against those precomputed service-start times: the
// Port computes, at admission, exactly when each packet will begin
// serializing, so "current queue length" is just a count of packets
// whose service has not started yet. This lets the Port schedule a
// single simulator event per packet (its delivery) instead of separate
// dequeue and delivery events — the difference is about 2x on whole-run
// time.
type Queue Port

// Len returns the number of packets waiting (service not yet started)
// at time now.
func (q *Queue) Len(now units.Time) int {
	(*Port)(q).advance(now)
	return int(q.waiting)
}

// Bytes returns the wire bytes waiting at time now.
func (q *Queue) Bytes(now units.Time) units.Bytes {
	(*Port)(q).advance(now)
	return q.waitingBytes
}

// Stats returns a copy of the accumulated counters. Dequeued and
// BytesOut are not stored: a packet is counted out exactly when it
// leaves the waiting part, so they are what came in less what waits,
// and a delivery writes no counter.
func (q *Queue) Stats() QueueStats {
	return QueueStats{
		Enqueued:        q.enqueued,
		Dropped:         q.dropped,
		Marked:          q.marked,
		MaxLen:          int(q.maxLen),
		BytesIn:         q.bytesIn,
		BytesOut:        q.bytesIn - q.waitingBytes,
		Dequeued:        q.enqueued - int64(q.waiting),
		FaultDropped:    q.faultDropped,
		SumLenOnArrival: q.sumLenOnArrival,
	}
}

// Config returns the queue's configuration.
func (q *Queue) Config() QueueConfig {
	return QueueConfig{Capacity: int(q.capacity), ECNThreshold: int(q.ecnThreshold)}
}

// advance accounts for packets whose service has begun by time now.
func (p *Port) advance(now units.Time) {
	e := p.firstWaiting
	for e != nil && e.serviceStart <= now {
		p.waiting--
		p.waitingBytes -= e.stampWire()
		e = e.next
	}
	p.firstWaiting = e
}

// admit applies drop-tail and ECN policy and links the packet at the
// tail with its (already computed) service-start and delivery times
// and its stamp — only admitted packets get one: a dropped packet has
// no delivery instant to order. It reports false on drop.
func (p *Port) admit(pkt *Packet, now, serviceStart, deliverAt units.Time) bool {
	if pkt.queued {
		panic("netem: packet sent while still queued")
	}
	p.advance(now)
	l := p.waiting
	if l > 0 { // an empty queue adds nothing, and the counter is a line away
		p.sumLenOnArrival += int64(l)
	}
	if p.capacity > 0 && l >= p.capacity {
		p.dropped++
		return false
	}
	// Per-packet queue-seen stats (Fig. 3a input) record only admitted
	// packets: a dropped packet never experiences the queue, and its
	// copy will be retransmitted with fresh counters.
	if int(l) > pkt.MaxQueueSeen {
		pkt.MaxQueueSeen = int(l)
	}
	if p.ecnThreshold > 0 && l >= p.ecnThreshold {
		pkt.CE = true
		p.marked++
	}
	pkt.QueueDelay += serviceStart - now
	if pkt.Wire < 0 || pkt.Wire > stampWireMask {
		panic("netem: packet wire size overflows the delivery stamp (raise deliveryPortBits)")
	}
	pkt.queued = true
	pkt.serviceStart, pkt.deliverAt, pkt.stamp = serviceStart, deliverAt, DeliveryKey(now, uint32(pkt.Wire))
	if p.head == nil {
		p.head = pkt
	} else {
		p.tail.next = pkt
	}
	p.tail = pkt
	if p.firstWaiting == nil {
		p.firstWaiting = pkt
	}
	p.waiting++
	p.waitingBytes += pkt.Wire
	p.enqueued++
	p.bytesIn += pkt.Wire
	if p.waiting > p.maxLen {
		p.maxLen = p.waiting
	}
	return true
}

// headDelivery returns the delivery time of the oldest undelivered
// packet — the one the port's single pending engine event stands for —
// and its DeliveryKey on this port.
func (p *Port) headDelivery() (units.Time, uint64) {
	return p.head.deliverAt, p.head.stamp&^stampWireMask | uint64(p.idx)
}

// popDelivered unlinks and returns the oldest packet (its delivery
// event has fired).
func (p *Port) popDelivered() *Packet {
	pkt := p.head
	if pkt == p.firstWaiting {
		// No occupancy query ran since its service began: delivery
		// implies service completed long ago; account for it.
		p.firstWaiting = pkt.next
		p.waiting--
		p.waitingBytes -= pkt.stampWire()
	}
	p.head = pkt.next
	pkt.next = nil
	pkt.queued = false
	return pkt
}
