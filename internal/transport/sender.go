package transport

import (
	"fmt"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Sender is the sending endpoint of one flow. It is driven entirely by
// simulator events: Start kicks off the handshake, and the owning Host
// feeds it the SYN-ACK and the ACKs addressed to it.
type Sender struct {
	// ep is this endpoint as the receiver's ACKs name it; peer is the
	// flow's receiver (see Open), whose ep goes on everything sent.
	ep   netem.Endpoint
	peer *Receiver
	flow *flow // the object both endpoints live in, released through it

	sim  *eventsim.Sim
	cfg  *Config // the run's one Config
	host *Host   // emits through host.out, allocates from host.pool
	done func(*Sender)

	id   netem.FlowID
	size units.Bytes

	// Sequence state (bytes).
	sndUna units.Bytes // oldest unacknowledged
	sndNxt units.Bytes // next to send

	// Congestion control (bytes, float64 so sub-MSS growth in
	// congestion avoidance accumulates).
	cwnd     float64
	ssthresh float64

	dupAcks    int
	inRecovery bool
	recover    units.Bytes

	// RTO machinery. The timer is lazy: arming only records the
	// deadline, and an already-scheduled (earlier) event re-schedules
	// itself on expiry if the deadline moved. This avoids a
	// cancel+insert pair of heap operations on every ACK. Every (re)arm
	// schedules the static rtoFire with the sender as its argument, so
	// no closure is built; rtoTimer is a generation-checked handle,
	// inert once the event fired or was cancelled.
	rtoTimer    eventsim.Event
	rtoDeadline units.Time
	rtoBackoff  units.Time
	srtt        units.Time
	rttvar      units.Time
	hasRTT      bool
	// Karn's algorithm: time one un-retransmitted segment at a time.
	rttSeq    units.Bytes
	rttSentAt units.Time
	rttValid  bool

	// DCTCP state.
	alpha       float64
	winEnd      units.Bytes // alpha observation window boundary (seq)
	bytesAcked  units.Bytes
	bytesMarked units.Bytes

	established bool
	started     bool
	finished    bool // a completed sender ignores the ACKs still in flight

	// SACK scoreboard: the set of segment starts the receiver has
	// reported (sorted, so every scan is deterministic); retxRec tracks
	// what this recovery episode already retransmitted so each hole is
	// resent once per episode.
	sacked  segSet
	retxRec segSet

	// Stats is the flow's record, shared with the receiver: allocated
	// apart when the run keeps it (a Result that keeps it keeps 184
	// bytes, not the flow), recycled with the flow when nothing does.
	Stats *FlowStats
	// Sink, when set, is credited with every newly acknowledged byte.
	Sink *Sink
}

// ID returns the flow identity.
func (s *Sender) ID() netem.FlowID { return s.id }

// Receiver returns the flow's receiving endpoint.
func (s *Sender) Receiver() *Receiver { return s.peer }

// Size returns the flow size in bytes.
func (s *Sender) Size() units.Bytes { return s.size }

// Done reports whether every byte has been acknowledged.
func (s *Sender) Done() bool { return s.finished }

// Cwnd returns the current congestion window in bytes (for tests and
// instrumentation).
func (s *Sender) Cwnd() units.Bytes { return units.Bytes(s.cwnd) }

// Start opens the flow with a SYN — the message the paper's switch
// counts flows with; data follows the SYN-ACK.
func (s *Sender) Start() {
	if s.started {
		panic(fmt.Sprintf("transport: flow %v started twice", s.id))
	}
	s.started = true
	s.Stats.Start = s.sim.Now()
	s.rtoBackoff = s.rto()
	s.sendControl(netem.Syn)
	s.armRTO()
}

// onSynAck completes the handshake.
func (s *Sender) onSynAck(pkt *netem.Packet) {
	if s.established || s.finished {
		return // duplicate SYN-ACK
	}
	s.established = true
	s.sampleRTT(s.sim.Now() - s.Stats.Start)
	s.trySend()
}

// onAck processes a cumulative acknowledgement.
func (s *Sender) onAck(pkt *netem.Packet) {
	if s.finished || !s.established {
		return
	}
	ack := pkt.Ack
	if pkt.ECNEcho {
		s.Stats.ECNAcks++
	}
	if s.cfg.SACK && pkt.SackCount > 0 {
		s.recordSack(pkt)
	}
	if ack > s.sndUna {
		s.newAck(ack, pkt.ECNEcho)
		return
	}
	// Stale ACK (below the window, e.g. reordered on the reverse
	// path): ignore. Only an ACK restating exactly snd_una counts as
	// a duplicate (RFC 5681), and only while data is outstanding.
	if ack < s.sndUna || s.sndNxt == s.sndUna {
		return
	}
	s.dupAcks++
	switch {
	case s.inRecovery:
		// Inflate: each dup ACK means a packet left the network.
		s.cwnd += float64(MSS)
		if s.cfg.SACK {
			s.sackRetransmit()
		}
		s.trySend()
	case s.dupAcks == DupAckThreshold:
		s.fastRetransmit()
	}
}

// recordSack folds an ACK's selective blocks into the scoreboard.
func (s *Sender) recordSack(pkt *netem.Packet) {
	for i := 0; i < int(pkt.SackCount); i++ {
		b := pkt.SackBlocks[i]
		for seq := b.Start; seq < b.End; {
			seg := s.segLen(seq)
			if seg <= 0 {
				break
			}
			s.sacked.Add(seq)
			seq += seg
		}
	}
}

// sackRetransmit resends the lowest segment the scoreboard deems lost,
// at most once per recovery episode. Per RFC 6675's loss criterion, an
// un-SACKed segment counts as lost only once DupAckThreshold segments
// above it have been SACKed — merely being in flight is not enough.
func (s *Sender) sackRetransmit() {
	for seq := s.sndUna; seq < s.recover; {
		seg := s.segLen(seq)
		if seg <= 0 {
			return
		}
		if !s.sacked.Has(seq) && !s.retxRec.Has(seq) && s.sackedAbove(seq) >= DupAckThreshold {
			s.retxRec.Add(seq)
			s.retransmit(seq)
			return
		}
		seq += seg
	}
}

// sackedAbove counts SACKed segments beyond seq.
func (s *Sender) sackedAbove(seq units.Bytes) int {
	return s.sacked.CountAbove(seq)
}

// segLen returns the length of the segment starting at seq.
func (s *Sender) segLen(seq units.Bytes) units.Bytes {
	if seq >= s.size {
		return 0
	}
	seg := MSS
	if rem := s.size - seq; rem < seg {
		seg = rem
	}
	return seg
}

func (s *Sender) newAck(ack units.Bytes, ece bool) {
	newly := ack - s.sndUna
	s.sndUna = ack
	s.Stats.BytesAcked = ack
	if s.Sink != nil {
		s.Sink.Acked += newly
	}
	s.dupAcks = 0

	// RTT sampling (Karn: only segments never retransmitted).
	if s.rttValid && ack > s.rttSeq {
		s.sampleRTT(s.sim.Now() - s.rttSentAt)
		s.rttValid = false
	}

	// DCTCP fraction accounting over one window of data.
	s.bytesAcked += newly
	if ece {
		s.bytesMarked += newly
	}
	if ack >= s.winEnd {
		s.endAlphaWindow()
	}

	if s.cfg.SACK {
		s.sacked.DropBelow(s.sndUna)
	}
	if s.inRecovery {
		if ack >= s.recover {
			// Full ACK: leave recovery, deflate to ssthresh.
			s.inRecovery = false
			s.cwnd = s.ssthresh
			if s.cfg.SACK {
				s.retxRec.Reset()
			}
		} else if s.cfg.SACK {
			// Partial ACK: resend the next un-SACKed hole.
			s.sackRetransmit()
		} else {
			// Partial ACK: the next hole is lost too.
			s.retransmit(s.sndUna)
		}
	} else if s.cwnd < s.ssthresh {
		// Slow start: one MSS per MSS acked.
		s.cwnd += float64(newly)
	} else {
		// Congestion avoidance: ~one MSS per RTT.
		s.cwnd += float64(MSS) * float64(newly) / s.cwnd
	}
	if s.cwnd > float64(RcvWindow) {
		s.cwnd = float64(RcvWindow)
	}
	if units.Bytes(s.cwnd) > s.Stats.MaxCwnd {
		s.Stats.MaxCwnd = units.Bytes(s.cwnd)
	}

	if s.sndUna >= s.size {
		s.complete()
		return
	}
	s.rtoBackoff = s.rto() // fresh progress resets backoff
	s.armRTO()
	s.trySend()
}

// endAlphaWindow closes one observation window: update alpha from the
// marked fraction and, if the window saw any marks, apply the (single)
// DCTCP reduction for it.
func (s *Sender) endAlphaWindow() {
	if s.bytesAcked > 0 {
		frac := float64(s.bytesMarked) / float64(s.bytesAcked)
		if !s.cfg.NewReno {
			const g = DCTCPGain
			s.alpha = float64((1-g)*s.alpha) + float64(g*frac)
			if s.bytesMarked > 0 {
				s.cwnd = maxf(s.cwnd*(1-float64(s.alpha/2)), float64(MSS))
				s.ssthresh = s.cwnd
				s.Stats.WindowCuts++
			}
		} else if s.bytesMarked > 0 {
			// Classic ECN: halve once per window.
			s.cwnd = maxf(s.cwnd/2, 2*float64(MSS))
			s.ssthresh = s.cwnd
			s.Stats.WindowCuts++
		}
	}
	s.bytesAcked, s.bytesMarked = 0, 0
	s.winEnd = s.sndNxt
}

func (s *Sender) fastRetransmit() {
	s.ssthresh = maxf(s.cwnd/2, 2*float64(MSS))
	s.cwnd = s.ssthresh + DupAckThreshold*float64(MSS)
	s.inRecovery = true
	s.recover = s.sndNxt
	s.Stats.FastRetx++
	s.Stats.WindowCuts++
	if s.cfg.SACK {
		s.retxRec.Reset()
		s.sackRetransmit()
		return
	}
	s.retransmit(s.sndUna)
}

// rtoFire is the RTO timer callback of every sender.
func rtoFire(arg any) { arg.(*Sender).onRTOTimer() }

// onRTOTimer fires at the scheduled instant; if the deadline has moved
// forward since scheduling (progress arrived), it just re-arms. The
// fired handle in rtoTimer is already inert (its generation no longer
// matches), so it needs no explicit clearing.
func (s *Sender) onRTOTimer() {
	if s.finished {
		return
	}
	if s.sim.Now() < s.rtoDeadline {
		s.rtoTimer = s.sim.AtArg(s.rtoDeadline, rtoFire, s)
		return
	}
	s.onRTO()
}

// onRTO is the actual retransmission-timeout reaction.
func (s *Sender) onRTO() {
	if s.finished {
		return
	}
	s.Stats.Timeouts++
	if !s.established {
		// Lost SYN (or SYN-ACK): try again.
		s.sendControl(netem.Syn)
		s.doubleBackoff()
		s.armRTO()
		return
	}
	s.ssthresh = maxf(s.cwnd/2, 2*float64(MSS))
	s.cwnd = float64(MSS)
	s.dupAcks = 0
	s.inRecovery = false
	s.rttValid = false
	s.Stats.WindowCuts++
	if s.cfg.SACK {
		// RTO invalidates the scoreboard (RFC 6675 conservativeness).
		s.sacked.Reset()
		s.retxRec.Reset()
	}
	// Go-back-N from the hole.
	s.sndNxt = s.sndUna
	s.retransmit(s.sndUna)
	s.doubleBackoff()
	s.armRTO()
}

// doubleBackoff applies the exponential timeout backoff, capped at
// max(1 s, MinRTO) so a loss streak cannot push the next retry beyond
// reach.
func (s *Sender) doubleBackoff() {
	s.rtoBackoff = min(2*s.rtoBackoff, s.cfg.maxRTO())
}

// trySend emits as many new segments as the window allows.
func (s *Sender) trySend() {
	if s.finished || !s.established {
		return
	}
	wnd := units.Bytes(s.cwnd)
	if wnd > RcvWindow {
		wnd = RcvWindow
	}
	for s.sndNxt < s.size {
		inflight := s.sndNxt - s.sndUna
		seg := MSS
		if rem := s.size - s.sndNxt; rem < seg {
			seg = rem
		}
		// Always allow one segment in flight so a tiny window cannot
		// deadlock the flow.
		if inflight > 0 && inflight+seg > wnd {
			break
		}
		s.emitData(s.sndNxt, seg, false)
		if !s.rttValid {
			s.rttSeq = s.sndNxt
			s.rttSentAt = s.sim.Now()
			s.rttValid = true
		}
		s.sndNxt += seg
	}
	if s.winEnd < s.sndUna {
		s.winEnd = s.sndNxt
	}
	s.armRTO()
}

func (s *Sender) retransmit(seq units.Bytes) {
	seg := MSS
	if rem := s.size - seq; rem < seg {
		seg = rem
	}
	if seg <= 0 {
		return
	}
	s.Stats.Retransmits++
	if s.rttValid && seq == s.rttSeq {
		s.rttValid = false
	}
	s.emitData(seq, seg, true)
	if seq+seg > s.sndNxt {
		s.sndNxt = seq + seg
	}
}

func (s *Sender) emitData(seq, seg units.Bytes, retx bool) {
	pkt := s.host.pool.Get()
	pkt.Flow = s.id
	pkt.To = &s.peer.ep
	pkt.Kind = netem.Data
	pkt.Seq = seq
	pkt.Payload = seg
	pkt.Wire = seg + HeaderBytes
	pkt.SentAt = s.sim.Now()
	pkt.Retransmit = retx
	pkt.FIN = seq+seg >= s.size
	s.host.out(pkt)
}

func (s *Sender) sendControl(kind netem.Kind) {
	pkt := s.host.pool.Get()
	pkt.Flow = s.id
	pkt.To = &s.peer.ep
	pkt.Kind = kind
	pkt.Wire = HeaderBytes
	pkt.SentAt = s.sim.Now()
	s.host.out(pkt)
}

func (s *Sender) complete() {
	s.finished = true
	s.Stats.Done = true
	s.Stats.End = s.sim.Now()
	s.sim.Cancel(s.rtoTimer)
	if s.done != nil {
		s.done(s)
	}
	s.flow.settled = true
	s.flow.release()
}

func (s *Sender) rto() units.Time {
	if !s.hasRTT {
		return s.cfg.minRTO()
	}
	return max(s.srtt+4*s.rttvar, s.cfg.minRTO())
}

func (s *Sender) sampleRTT(rtt units.Time) {
	if rtt <= 0 {
		rtt = 1
	}
	if !s.hasRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.hasRTT = true
	} else {
		// RFC 6298 with alpha=1/8, beta=1/4.
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rtoBackoff = s.rto()
}

func (s *Sender) armRTO() {
	if s.finished {
		return
	}
	// Nothing outstanding and nothing to come: no timer needed.
	if s.established && s.sndUna >= s.sndNxt && s.sndNxt >= s.size {
		return
	}
	s.rtoDeadline = s.sim.Now() + s.rtoBackoff
	if !s.rtoTimer.Scheduled() {
		s.rtoTimer = s.sim.AtArg(s.rtoDeadline, rtoFire, s)
	} else if s.rtoTimer.At() > s.rtoDeadline {
		// The deadline moved *earlier* (progress reset a long timeout
		// backoff): the lazy scheme only recovers from deadlines that
		// move later, so a stale far-future event would leave the flow
		// without a live RTO for the rest of the old backoff.
		s.sim.Cancel(s.rtoTimer)
		s.rtoTimer = s.sim.AtArg(s.rtoDeadline, rtoFire, s)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
