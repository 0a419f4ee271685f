package transport

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

func TestDelayedAckHalvesAckCount(t *testing.T) {
	run := func(delayed bool) (acks int64, fct units.Time) {
		s := eventsim.New()
		p := newPipe(s, testDelay)
		cfg := testCfg()
		cfg.DelayedAck = delayed
		var ackCount int64
		p.intercept = func(dir int, pkt *netem.Packet) bool {
			if dir == 1 && pkt.Kind == netem.Ack {
				ackCount++
			}
			return true
		}
		snd := openFlow(t, p, cfg, 200*MSS)
		snd.Start()
		s.RunUntil(10 * units.Second)
		if !snd.Done() {
			t.Fatal("not done")
		}
		return ackCount, snd.Stats.FCT()
	}
	full, fctFull := run(false)
	half, fctHalf := run(true)
	if float64(half) > 0.7*float64(full) {
		t.Fatalf("delayed ACK sent %d acks vs %d without — not delaying", half, full)
	}
	// Delayed acks slow the ACK clock a little but must stay in the
	// same ballpark.
	if fctHalf > 3*fctFull {
		t.Fatalf("delayed ACK FCT %v vs %v — timer stalls", fctHalf, fctFull)
	}
}

func TestDelayedAckTimeoutFlushesLoneSegment(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	cfg.DelayedAck = true
	// Segment 1 is held back past the timeout, so segment 0 — in order
	// and not the FIN — arrives alone: only the timer can ACK it.
	sent0, ack0, held := units.Time(-1), units.Time(-1), false
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		switch {
		case dir == 0 && pkt.Kind == netem.Data && pkt.Seq == 0 && sent0 < 0:
			sent0 = s.Now()
		case dir == 0 && pkt.Kind == netem.Data && pkt.Seq == MSS && !held:
			held = true
			s.After(2*DelayedAckTimeout, func() { p.hosts[1].Receive(pkt) })
			return false
		case dir == 1 && pkt.Kind == netem.Ack && ack0 < 0:
			ack0 = s.Now()
		}
		return true
	}
	snd := openFlow(t, p, cfg, 3*MSS)
	snd.Start()
	s.RunUntil(5 * units.Second)
	if !snd.Done() {
		t.Fatal("flow stalled: delayed-ACK timer never flushed")
	}
	if want := sent0 + testDelay + DelayedAckTimeout; ack0 != want {
		t.Fatalf("lone segment ACKed at %v, want the timeout after its arrival, %v", ack0, want)
	}
}

func TestDelayedAckImmediateOnOutOfOrder(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	cfg.DelayedAck = true
	reorder, open := lateSegment2(p)
	var acksWhileOpen int64
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if dir == 1 && pkt.Kind == netem.Ack && *open {
			acksWhileOpen++
		}
		return reorder(dir, pkt)
	}
	snd := openFlow(t, p, cfg, 16*MSS)
	snd.Start()
	s.RunUntil(5 * units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	// The receiver must ACK each of the two out-of-order arrivals at
	// once, delayed ACKs or not.
	if acksWhileOpen != DupAckThreshold-1 || snd.Stats.FastRetx != 0 {
		t.Fatalf("%d ACKs while the hole was open and %d fast retransmits, want %d and none", acksWhileOpen, snd.Stats.FastRetx, DupAckThreshold-1)
	}
}

func TestSACKRepairsMultipleLossesInOneWindow(t *testing.T) {
	run := func(sack bool) (retx int64, timeouts int64) {
		s := eventsim.New()
		p := newPipe(s, testDelay)
		cfg := testCfg()
		cfg.SACK = sack
		dropped := map[units.Bytes]bool{}
		p.intercept = func(dir int, pkt *netem.Packet) bool {
			// Drop three separate segments of the same window once.
			if dir == 0 && pkt.Kind == netem.Data && !pkt.Retransmit {
				if (pkt.Seq == 8*MSS || pkt.Seq == 10*MSS || pkt.Seq == 12*MSS) && !dropped[pkt.Seq] {
					dropped[pkt.Seq] = true
					return false
				}
			}
			return true
		}
		snd := openFlow(t, p, cfg, 64*MSS)
		snd.Start()
		s.RunUntil(30 * units.Second)
		if !snd.Done() {
			t.Fatal("not done")
		}
		if len(dropped) != 3 {
			t.Fatalf("dropped %d segments, want 3", len(dropped))
		}
		return snd.Stats.Retransmits, snd.Stats.Timeouts
	}
	retxNo, _ := run(false)
	retxSack, toSack := run(true)
	// SACK must repair all three losses without resending delivered
	// data: exactly 3 retransmissions and no timeouts.
	if retxSack != 3 {
		t.Fatalf("SACK retransmitted %d segments for 3 losses", retxSack)
	}
	if toSack != 0 {
		t.Fatalf("SACK took %d timeouts", toSack)
	}
	if retxSack > retxNo {
		t.Fatalf("SACK (%d) retransmitted more than NewReno (%d)", retxSack, retxNo)
	}
}

func TestSACKBlocksOnACKs(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	cfg.SACK = true
	sawBlock := false
	var dropOnce bool
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if dir == 0 && pkt.Kind == netem.Data && pkt.Seq == 4*MSS && !dropOnce {
			dropOnce = true
			return false
		}
		if dir == 1 && pkt.Kind == netem.Ack && pkt.SackCount > 0 {
			sawBlock = true
			b := pkt.SackBlocks[0]
			if b.Start <= pkt.Ack || b.End <= b.Start {
				t.Errorf("malformed SACK block %+v with ack %d", b, pkt.Ack)
			}
		}
		return true
	}
	snd := openFlow(t, p, cfg, 16*MSS)
	snd.Start()
	s.RunUntil(10 * units.Second)
	if !sawBlock {
		t.Fatal("no SACK blocks observed despite a hole")
	}
	if !snd.Done() {
		t.Fatal("not done")
	}
}

func TestSACKFlowStillCompletesUnderRandomLoss(t *testing.T) {
	rng := eventsim.NewRNG(99)
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	cfg.SACK = true
	cfg.DelayedAck = true
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		return rng.Float64() >= 0.15
	}
	snd := openFlow(t, p, cfg, 80*MSS)
	snd.Start()
	s.RunUntil(60 * units.Second)
	if !snd.Done() || snd.Stats.BytesAcked != 80*MSS {
		t.Fatalf("SACK+delayedAck flow failed under loss: done=%v acked=%v",
			snd.Done(), snd.Stats.BytesAcked)
	}
}
