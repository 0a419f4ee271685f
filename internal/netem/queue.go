package netem

import (
	"tlb/internal/units"
)

// QueueConfig parameterizes a drop-tail FIFO queue.
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

// queueEntry is one admitted packet, the moment it starts service
// (leaves the waiting queue, NS2 drop-tail semantics), when it reaches
// the far end, and its stamp: the DeliveryKey built at admission that
// fixes its tie-break position among same-instant events, with the
// key's port-index field — the same for every entry of one port, which
// ORs it back in — lent to the packet's wire size. The occupancy
// accounting therefore never dereferences a packet other than the one
// being handled (a queued packet's 144 bytes are cold by the time its
// service starts), and the entry stays four words.
type queueEntry struct {
	pkt          *Packet
	serviceStart units.Time
	deliverAt    units.Time
	stamp        uint64
}

// stampWireMask selects the wire-size field of a stamp.
const stampWireMask = 1<<deliveryPortBits - 1

func (e *queueEntry) wire() units.Bytes { return units.Bytes(e.stamp & stampWireMask) }

// Queue is a drop-tail FIFO with ECN marking whose occupancy is
// evaluated lazily against precomputed service-start times: the owning
// Port computes, at admission, exactly when each packet will begin
// serializing, so "current queue length" is just a count of entries
// whose service has not started yet. This lets the Port schedule a
// single simulator event per packet (its delivery) instead of separate
// dequeue and delivery events — the difference is about 2x on whole-run
// time.
//
// A Queue lives inside its Port by value, and its field order is part
// of Port's layout contract (layout_test.go): the ring and started —
// all a delivery touches — come first, the admission-time fields
// follow.
type Queue struct {
	// entries holds admitted-but-undelivered packets in FIFO order;
	// the first `started` of them have already begun service.
	entries entryRing
	started int
	// waitingBytes is the wire-byte occupancy of the waiting part.
	waitingBytes units.Bytes
	cfg          QueueConfig
	stats        QueueStats
}

// advance accounts for entries whose service has begun by time now.
func (q *Queue) advance(now units.Time) {
	for q.started < q.entries.len() {
		e := q.entries.at(q.started)
		if e.serviceStart > now {
			break
		}
		q.started++
		q.waitingBytes -= e.wire()
		q.stats.Dequeued++
		q.stats.BytesOut += e.wire()
	}
}

// Len returns the number of packets waiting (service not yet started)
// at time now.
func (q *Queue) Len(now units.Time) int {
	q.advance(now)
	return q.entries.len() - q.started
}

// Bytes returns the wire bytes waiting at time now.
func (q *Queue) Bytes(now units.Time) units.Bytes {
	q.advance(now)
	return q.waitingBytes
}

// Stats returns a copy of the accumulated counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// Config returns the queue's configuration.
func (q *Queue) Config() QueueConfig { return q.cfg }

// admit applies drop-tail and ECN policy and records the packet with
// its (already computed) service-start and delivery times and its
// stamp — only admitted packets get one: a dropped packet has no
// delivery instant to order. It reports false on drop.
func (q *Queue) admit(p *Packet, now, serviceStart, deliverAt units.Time) bool {
	l := q.Len(now)
	q.stats.SumLenOnArrival += int64(l)
	if q.cfg.Capacity > 0 && l >= q.cfg.Capacity {
		q.stats.Dropped++
		return false
	}
	// Per-packet queue-seen stats (Fig. 3a input) record only admitted
	// packets: a dropped packet never experiences the queue, and its
	// copy will be retransmitted with fresh counters.
	if l > p.MaxQueueSeen {
		p.MaxQueueSeen = l
	}
	if q.cfg.ECNThreshold > 0 && l >= q.cfg.ECNThreshold {
		p.CE = true
		q.stats.Marked++
	}
	p.EnqueuedAt = now
	p.QueueDelay += serviceStart - now
	if p.Wire < 0 || p.Wire > stampWireMask {
		panic("netem: packet wire size overflows the queue entry stamp (raise deliveryPortBits)")
	}
	*q.entries.push() = queueEntry{pkt: p, serviceStart: serviceStart, deliverAt: deliverAt, stamp: DeliveryKey(now, uint32(p.Wire))}
	q.waitingBytes += p.Wire
	q.stats.Enqueued++
	q.stats.BytesIn += p.Wire
	if l+1 > q.stats.MaxLen {
		q.stats.MaxLen = l + 1
	}
	return true
}

// faultDrop records an admission drop at a down port.
func (q *Queue) faultDrop() { q.stats.FaultDropped++ }

// headDelivery returns the delivery time of the oldest undelivered
// entry — the one the port's single pending engine event stands for —
// and its DeliveryKey on the port with the given index.
func (q *Queue) headDelivery(port uint32) (units.Time, uint64) {
	e := q.entries.headRef()
	return e.deliverAt, e.stamp&^stampWireMask | uint64(port)
}

// hasEntries reports whether any admitted packet is still undelivered.
func (q *Queue) hasEntries() bool { return q.entries.len() > 0 }

// popDelivered removes and returns the oldest entry (its delivery
// event has fired).
func (q *Queue) popDelivered() *Packet {
	e := q.entries.pop()
	if q.started > 0 {
		q.started--
	} else {
		// Delivery implies service completed long ago; account for it.
		q.waitingBytes -= e.wire()
		q.stats.Dequeued++
		q.stats.BytesOut += e.wire()
	}
	return e.pkt
}

// entryRing is a growable FIFO ring buffer; it avoids the
// per-operation allocation a linked list would pay on the simulator's
// hottest path.
type entryRing struct {
	buf  []queueEntry
	head int
	n    int
}

func (r *entryRing) len() int { return r.n }

func (r *entryRing) at(i int) *queueEntry {
	return &r.buf[(r.head+i)%len(r.buf)]
}

// push appends one entry and returns it for the caller to fill in
// place (an entry is five words; passing it by value copies it twice).
func (r *entryRing) push() *queueEntry {
	if r.n == len(r.buf) {
		r.grow()
	}
	e := &r.buf[(r.head+r.n)%len(r.buf)]
	r.n++
	return e
}

func (r *entryRing) headRef() *queueEntry {
	return &r.buf[r.head]
}

func (r *entryRing) pop() queueEntry {
	if r.n == 0 {
		panic("netem: pop from empty queue")
	}
	e := r.buf[r.head]
	r.buf[r.head].pkt = nil // the slot must not pin a delivered packet
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}

func (r *entryRing) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	nb := make([]queueEntry, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = nb
	r.head = 0
}
