package transport

import (
	"tlb/internal/netem"
	"tlb/internal/stats"
	"tlb/internal/units"
)

// FlowStats is the per-flow record every experiment reduces over.
type FlowStats struct {
	ID   netem.FlowID
	Size units.Bytes

	// Start is when the application opened the flow; End is when the
	// last byte was cumulatively acknowledged at the sender. FCT is
	// End-Start.
	Start, End units.Time
	Done       bool

	// Deadline is the flow's absolute completion deadline (zero if
	// none). Missed is set when the flow finished after it; unfinished
	// flows past their deadline also count as missed at collection.
	Deadline units.Time

	// Sender-side counters.
	PacketsSent int64
	BytesSent   units.Bytes // payload, including retransmissions
	BytesAcked  units.Bytes // cumulatively acknowledged payload
	Retransmits int64
	Timeouts    int64
	FastRetx    int64
	DupAcksRcvd int64 // duplicate ACKs observed by the sender
	ECNAcks     int64 // ACKs carrying an ECN echo
	WindowCuts  int64 // loss- or ECN-triggered reductions
	MaxCwnd     units.Bytes

	// Receiver-side counters.
	SumQueueDelay units.Time // total queueing delay of received data packets, all hops
	PacketsRecv   int64
	OutOfOrder    int64 // data packets that arrived above rcvNxt (reordered or post-loss)
	DupAcksSent   int64
	DelaySamples  int64
}

// FCT returns the flow completion time, or 0 for unfinished flows.
func (s *FlowStats) FCT() units.Time {
	if !s.Done {
		return 0
	}
	return s.End - s.Start
}

// MissedDeadline reports whether the flow had a deadline and failed it
// (either finished late, or unfinished by time now).
func (s *FlowStats) MissedDeadline(now units.Time) bool {
	if s.Deadline == 0 {
		return false
	}
	if s.Done {
		return s.End > s.Deadline
	}
	return now > s.Deadline
}

// DupAckRatio returns the receiver's duplicate-ACK count over packets
// received — the reordering signal of the paper's Fig. 3b.
func (s *FlowStats) DupAckRatio() float64 {
	if s.PacketsRecv == 0 {
		return 0
	}
	return float64(s.DupAcksSent) / float64(s.PacketsRecv)
}

// Sink is where endpoints report what a run measures per packet rather
// than per flow: one per flow class, shared by every flow of the class
// and pointed at by each endpoint the runner opens. It keeps nothing per
// packet or per flow; its fields add in engine delivery order. A nil
// field is not measured.
type Sink struct {
	// QueueLen counts the largest queue each received data packet saw
	// on admission at any hop (Fig. 3a).
	QueueLen *stats.Histogram
	// QueueDelayUs buckets each received data packet's total queueing
	// delay in µs, OutOfOrder its out-of-order indicator, both by arrival
	// time in seconds (Figs. 8/9).
	QueueDelayUs, OutOfOrder *stats.TimeSeries
	// Acked is payload the senders newly acknowledged that the runner
	// has not yet moved into a goodput series.
	Acked units.Bytes
}

// data records one received data packet.
func (s *Sink) data(now units.Time, pkt *netem.Packet, outOfOrder bool) {
	if s.QueueLen != nil {
		s.QueueLen.Add(pkt.MaxQueueSeen)
	}
	if s.QueueDelayUs != nil {
		s.QueueDelayUs.Add(now.Seconds(), pkt.QueueDelay.Micros())
	}
	if s.OutOfOrder != nil {
		ooo := 0.0
		if outOfOrder {
			ooo = 1
		}
		s.OutOfOrder.Add(now.Seconds(), ooo)
	}
}
