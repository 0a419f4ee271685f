package transport

import (
	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Receiver is the receiving endpoint of one flow: it answers the SYN,
// generates one cumulative ACK per arriving data packet (unless the
// Config delays ACKs; the NS2 setups the paper uses do not), buffers
// out-of-order data and echoes each packet's CE bit, which is what
// DCTCP needs.
type Receiver struct {
	// ep is this endpoint as the sender's packets name it; peer is the
	// flow's sender, whose ep goes on every ACK.
	ep   netem.Endpoint
	peer *Sender

	sim  *eventsim.Sim
	cfg  *Config // the run's one Config
	host *Host   // emits through host.out, allocates from host.pool
	id   netem.FlowID
	size units.Bytes

	rcvNxt units.Bytes
	// ooo buffers out-of-order segments, sorted by start seq so every
	// reassembly and SACK-construction sweep is deterministic.
	ooo oooBuf

	lastAckSent units.Bytes
	sentAnyAck  bool

	// frozen is set once all payload bytes have arrived: from then on
	// the receiver keeps answering (late retransmissions still get their
	// ACKs, so sender dynamics are unchanged) but stops mutating Stats
	// and reporting to its Sink. Completion is receiver-local, so the
	// freeze point — unlike the runner's teardown event — is independent of
	// when the close lands: the record reads the same at any moment at
	// or after completion.
	frozen bool
	// closed is set by the host's CloseReceiverAt: whatever still arrives
	// is ignored. A pending delayed-ACK timer is no arrival: it fires.
	closed bool

	// Delayed-ACK state: how many in-order segments are unacknowledged
	// and the timer that bounds the delay. lastCE tracks the CE bit of
	// the previous data packet so a state change forces an immediate
	// ACK (the DCTCP requirement). The timer schedules the static
	// delayedAckFire with the receiver as its argument (so arming never
	// allocates a closure); ackCE is the CE state captured when the
	// timer was armed, which the callback echoes.
	pendingAcks int
	ackTimer    eventsim.Event
	ackCE       bool
	lastCE      bool
	// lastBlock remembers the most recent out-of-order segment so its
	// block is reported first, as RFC 2018 prescribes.
	lastBlock netem.SackBlock

	// Sink, when set, is told of every data packet received before the
	// freeze (the Fig. 3a histogram, the Figs. 8/9 series).
	Sink *Sink

	Stats *FlowStats
}

// delayedAckFire is the delayed-ACK timeout callback of every receiver.
func delayedAckFire(arg any) {
	r := arg.(*Receiver)
	r.emitAck(r.ackCE)
}

// Complete reports whether all payload bytes have arrived.
func (r *Receiver) Complete() bool { return r.rcvNxt >= r.size }

// onSyn answers the handshake.
func (r *Receiver) onSyn(pkt *netem.Packet) {
	reply := r.host.pool.Get()
	reply.Flow = r.id.Reversed()
	reply.To = &r.peer.ep
	reply.Kind = netem.SynAck
	reply.Wire = HeaderBytes
	reply.SentAt = r.sim.Now()
	r.host.out(reply)
}

// onData ingests one data segment and emits the corresponding ACK.
func (r *Receiver) onData(pkt *netem.Packet) {
	now := r.sim.Now()
	frozen := r.frozen
	if !frozen {
		r.Stats.PacketsRecv++
		r.Stats.DelaySamples++
	}
	outOfOrder := false

	switch {
	case pkt.Seq > r.rcvNxt:
		// Hole below this segment: buffer it. Arrival above rcvNxt is
		// the receiver-side reordering signal (retransmissions are
		// displaced on purpose and excluded).
		if !pkt.Retransmit {
			r.Stats.OutOfOrder++
			outOfOrder = true
		}
		r.ooo.Insert(pkt.Seq, pkt.Payload)
		r.lastBlock = netem.SackBlock{Start: pkt.Seq, End: pkt.Seq + pkt.Payload}
	case pkt.Seq+pkt.Payload <= r.rcvNxt:
		// Entirely duplicate; ACK below re-states rcvNxt.
	default:
		// In-order (possibly overlapping): advance and drain the
		// buffer.
		r.rcvNxt = pkt.Seq + pkt.Payload
		for {
			l, ok := r.ooo.Take(r.rcvNxt)
			if !ok {
				break
			}
			r.rcvNxt += l
		}
	}

	if !frozen {
		if r.Sink != nil {
			r.Sink.data(now, pkt, outOfOrder)
		}
		r.Stats.SumQueueDelay += pkt.QueueDelay
		if r.Complete() {
			r.frozen = true
		}
	}

	// Delayed ACK (when enabled): in-order segments with a stable CE
	// state may share one cumulative ACK; anything irregular — gaps,
	// duplicates, CE transitions — must be acknowledged at once so the
	// sender's loss and ECN machinery stays accurate.
	ceChanged := pkt.CE != r.lastCE
	r.lastCE = pkt.CE
	if r.cfg.DelayedAck && !outOfOrder && !ceChanged && !pkt.FIN && pkt.Seq+pkt.Payload == r.rcvNxt {
		r.pendingAcks++
		if r.pendingAcks < 2 {
			if !r.ackTimer.Scheduled() {
				r.ackCE = pkt.CE
				r.ackTimer = r.sim.AtArg(now+DelayedAckTimeout, delayedAckFire, r)
			}
			return
		}
	}
	r.emitAck(pkt.CE)
}

// emitAck sends the cumulative (and selective) acknowledgement state.
func (r *Receiver) emitAck(ce bool) {
	// Cancel is generation-checked, so a handle whose timer already
	// fired (we are inside that firing) is a no-op.
	r.sim.Cancel(r.ackTimer)
	r.pendingAcks = 0
	ack := r.host.pool.Get()
	ack.Flow = r.id.Reversed()
	ack.To = &r.peer.ep
	ack.Kind = netem.Ack
	ack.Ack = r.rcvNxt
	ack.Wire = HeaderBytes
	ack.ECNEcho = ce
	ack.SentAt = r.sim.Now()
	if r.cfg.SACK {
		r.fillSackBlocks(ack)
	}
	if r.sentAnyAck && r.rcvNxt == r.lastAckSent && !r.frozen {
		r.Stats.DupAcksSent++
	}
	r.lastAckSent = r.rcvNxt
	r.sentAnyAck = true
	r.host.out(ack)
}

// fillSackBlocks reports up to three out-of-order ranges, the most
// recently received first (RFC 2018), then the remaining buffered
// ranges in ascending sequence order. Adjacent buffered segments are
// coalesced so a block covers a contiguous range.
func (r *Receiver) fillSackBlocks(ack *netem.Packet) {
	if r.ooo.Empty() {
		return
	}
	grow := func(b netem.SackBlock) netem.SackBlock {
		// Extend in both directions over buffered segments.
		for {
			if l, ok := r.ooo.At(b.End); ok {
				b.End += l
				continue
			}
			break
		}
		for {
			s, ok := r.ooo.EndingAt(b.Start)
			if !ok {
				break
			}
			b.Start = s.Start
		}
		return b
	}
	add := func(b netem.SackBlock) {
		if b.End <= b.Start || ack.SackCount >= 3 {
			return
		}
		for i := 0; i < int(ack.SackCount); i++ {
			if ack.SackBlocks[i] == b {
				return
			}
		}
		ack.SackBlocks[ack.SackCount] = b
		ack.SackCount++
	}
	if l, ok := r.ooo.At(r.lastBlock.Start); ok && r.lastBlock.End == r.lastBlock.Start+l {
		add(grow(r.lastBlock))
	}
	for _, seg := range r.ooo.Segs() {
		if ack.SackCount >= 3 {
			break
		}
		add(grow(netem.SackBlock{Start: seg.Start, End: seg.Start + seg.Len}))
	}
}
