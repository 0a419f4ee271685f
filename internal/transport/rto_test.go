package transport

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// TestRTOSurvivesHeavyLoss is the regression for a loss pattern (found
// by the seeded reliability property test under -race) that stalled a
// recoverable flow for two independent reasons:
//
//  1. the lazy RTO timer never rescheduled when the deadline moved
//     *earlier* — after a long timeout-backoff streak, the first ACK
//     reset the backoff but left the timer parked tens of seconds in
//     the future, so the flow sat with no live retransmission timer;
//  2. the backoff itself was uncapped, so a streak of lost
//     retransmissions doubled the next retry past the simulation
//     horizon (RFC 6298 permits — and real stacks use — a ceiling).
//
// With both fixes the flow below completes well inside the horizon.
func TestRTOSurvivesHeavyLoss(t *testing.T) {
	seed, lossPct := uint64(0x4834699d7461b2a8), uint8(0xef)
	loss := float64(lossPct%30) / 100 // 29%, both directions
	rng := eventsim.NewRNG(seed)
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		return rng.Float64() >= loss
	}
	snd := openFlow(t, p, cfg, 40*MSS)
	snd.Start()
	s.RunUntil(60 * units.Second)
	if !snd.Done() || snd.Stats.BytesAcked != 40*MSS {
		t.Fatalf("flow stalled: done=%v acked=%v want %v (timeouts=%d retx=%d)",
			snd.Done(), snd.Stats.BytesAcked, 40*MSS,
			snd.Stats.Timeouts, snd.Stats.Retransmits)
	}
}

// TestRTORearmsWhenDeadlineMovesEarlier pins fix (1) directly: grow
// the backoff with consecutive timeouts, then deliver progress and
// check the timer is actually scheduled at the new, earlier deadline.
func TestRTORearmsWhenDeadlineMovesEarlier(t *testing.T) {
	s := eventsim.New()
	cfg := testCfg()
	var sent []*netem.Packet
	snd := loneFlow(s, cfg, netem.FlowID{Src: 0, Dst: 1}, 10*MSS, func(p *netem.Packet) {
		sent = append(sent, p)
	}, discard)
	snd.Start()

	// Let several RTOs fire with nothing delivered: backoff doubles.
	s.RunUntil(200 * units.Millisecond)
	if snd.Stats.Timeouts < 3 {
		t.Fatalf("expected a timeout streak, got %d", snd.Stats.Timeouts)
	}
	if snd.rtoBackoff <= snd.rto() {
		t.Fatalf("backoff %v did not grow beyond base RTO %v", snd.rtoBackoff, snd.rto())
	}

	// First progress: one segment ACKed. The backoff resets, so the
	// deadline moves earlier than the parked timer.
	snd.onAck(&netem.Packet{Flow: netem.FlowID{Src: 0, Dst: 1}, Kind: netem.Ack, Ack: MSS})
	if !snd.rtoTimer.Scheduled() {
		t.Fatal("no RTO timer scheduled after progress")
	}
	if snd.rtoTimer.At() > snd.rtoDeadline {
		t.Fatalf("timer parked at %v, after the deadline %v: flow has no live RTO",
			snd.rtoTimer.At(), snd.rtoDeadline)
	}
}

// TestRTOBackoffIsCapped pins fix (2): however many consecutive
// timeouts fire, the backoff stops at the cap, max(1 s, MinRTO).
func TestRTOBackoffIsCapped(t *testing.T) {
	s := eventsim.New()
	cfg := testCfg()
	snd := loneFlow(s, cfg, netem.FlowID{Src: 0, Dst: 1}, 10*MSS, discard, discard)
	snd.Start()
	s.RunUntil(30 * units.Second)
	if snd.Stats.Timeouts < 10 {
		t.Fatalf("expected many timeouts, got %d", snd.Stats.Timeouts)
	}
	if max := snd.cfg.maxRTO(); snd.rtoBackoff != max {
		t.Fatalf("backoff %v after a timeout streak, want the cap %v", snd.rtoBackoff, max)
	}
}
