package transport

import (
	//simlint:allow noglobalrand(testing/quick requires a *rand.Rand; both uses seed it with a fixed constant)
	"math/rand"
	"testing"
	"testing/quick"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// pipe connects two hosts with a fixed one-way delay and programmable
// per-packet interference (drop, CE-mark, extra delay), giving the
// transport tests precise control over network behaviour.
type pipe struct {
	sim   *eventsim.Sim
	delay units.Time
	// intercept may mutate the packet; returning false drops it.
	// dir is 0 for host0->host1, 1 for the reverse.
	intercept func(dir int, pkt *netem.Packet) bool

	hosts [2]*Host
}

func newPipe(sim *eventsim.Sim, delay units.Time) *pipe {
	p := &pipe{sim: sim, delay: delay}
	for i := 0; i < 2; i++ {
		dir := i
		p.hosts[i] = NewHost(sim, i, func(pkt *netem.Packet) {
			if p.intercept != nil && !p.intercept(dir, pkt) {
				return
			}
			p.sim.After(p.delay, func() { p.hosts[1-dir].Receive(pkt) })
		})
	}
	return p
}

const testDelay = 25 * units.Microsecond // one-way; RTT = 50µs

func testCfg() Config { return Config{MinRTO: 2 * units.Millisecond} }

// openFlow opens a flow from host0 to host1.
func openFlow(t *testing.T, p *pipe, cfg Config, size units.Bytes) *Sender {
	t.Helper()
	return Open(&cfg, p.hosts[0], p.hosts[1], netem.FlowID{Src: 0, Dst: 1, Port: 1}, size, nil)
}

// loneFlow opens a flow between two hosts of its own that are joined by
// nothing: what the sender emits goes to sent, what the receiver emits
// to acked, and the test delivers by hand.
func loneFlow(s *eventsim.Sim, cfg Config, id netem.FlowID, size units.Bytes, sent, acked func(*netem.Packet)) *Sender {
	return Open(&cfg, NewHost(s, id.Src, sent), NewHost(s, id.Dst, acked), id, size, nil)
}

func discard(*netem.Packet) {}

// lateSegment2 returns a pipe intercept that holds data segment 2 back
// and delivers it right behind segments 3 and 4: two arrivals above a
// hole, one short of DupAckThreshold, so fast retransmit stays out of
// what a test counts. *open reports whether the hole is still open.
func lateSegment2(p *pipe) (intercept func(dir int, pkt *netem.Packet) bool, open *bool) {
	var held *netem.Packet
	open = new(bool)
	return func(dir int, pkt *netem.Packet) bool {
		if dir != 0 || pkt.Kind != netem.Data || pkt.Retransmit {
			return true
		}
		switch {
		case pkt.Seq == 2*MSS && held == nil:
			held, *open = pkt, true
			return false
		case pkt.Seq == 5*MSS && *open:
			p.sim.After(p.delay, func() {
				*open = false
				p.hosts[1].Receive(held)
			})
		}
		return true
	}, open
}

func TestFlowCompletesCleanNetwork(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	snd := openFlow(t, p, testCfg(), 100*units.KB)
	snd.Start()
	s.RunUntil(units.Second)
	if !snd.Done() {
		t.Fatal("flow did not complete")
	}
	if snd.Stats.Retransmits != 0 {
		t.Fatalf("%d retransmits on a clean network", snd.Stats.Retransmits)
	}
	if snd.Stats.BytesAcked != 100*units.KB {
		t.Fatalf("acked %v", snd.Stats.BytesAcked)
	}
	// Slow start from 2 MSS: ~2+4+8+16+32+8 segments over ~6 RTTs plus
	// the handshake RTT. With RTT 50µs that's well under 1ms.
	if fct := snd.Stats.FCT(); fct > units.Millisecond {
		t.Fatalf("FCT %v too large for a clean 100KB transfer", fct)
	}
}

func TestSlowStartRoundStructure(t *testing.T) {
	// With handshake and per-packet ACKs, a 4-segment flow needs
	// SYN round + 2 data rounds (2 then 2 segments): FCT just over
	// 3 RTTs but under 4.
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	size := 4 * MSS
	snd := openFlow(t, p, cfg, size)
	snd.Start()
	s.RunUntil(units.Second)
	rtt := 2 * testDelay
	if !snd.Done() {
		t.Fatal("not done")
	}
	fct := snd.Stats.FCT()
	if fct < 3*rtt || fct > 4*rtt {
		t.Fatalf("FCT %v outside [3,4] RTTs (%v)", fct, rtt)
	}
}

func TestReceiveWindowCapsInflight(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	maxInflight := units.Bytes(0)
	var inflight units.Bytes
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if dir == 0 && pkt.Kind == netem.Data && !pkt.Retransmit {
			inflight = pkt.Seq + pkt.Payload
		}
		if dir == 1 && pkt.Kind == netem.Ack {
			if d := inflight - pkt.Ack; d > maxInflight {
				maxInflight = d
			}
		}
		return true
	}
	snd := openFlow(t, p, cfg, 2*units.MB)
	snd.Start()
	s.RunUntil(5 * units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	if maxInflight > RcvWindow+MSS {
		t.Fatalf("inflight %v exceeded receive window %v", maxInflight, RcvWindow)
	}
	if snd.Stats.MaxCwnd > RcvWindow {
		t.Fatalf("cwnd %v exceeded receive window %v", snd.Stats.MaxCwnd, RcvWindow)
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	dropped := false
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		// Drop the first data segment of the 3rd window once; later
		// segments still flow, generating dup ACKs.
		if dir == 0 && pkt.Kind == netem.Data && pkt.Seq == 6*MSS && !dropped && !pkt.Retransmit {
			dropped = true
			return false
		}
		return true
	}
	snd := openFlow(t, p, cfg, 64*MSS)
	snd.Start()
	s.RunUntil(5 * units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	if !dropped {
		t.Fatal("intended drop never happened")
	}
	if snd.Stats.FastRetx != 1 {
		t.Fatalf("fast retransmits = %d, want 1", snd.Stats.FastRetx)
	}
	if snd.Stats.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0 (loss should be repaired by dupacks)", snd.Stats.Timeouts)
	}
}

func TestRTOOnTailLoss(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	size := 4 * MSS
	dropped := false
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		// Drop the very last segment once: no packets behind it, so no
		// dup ACKs — only the RTO can recover.
		if dir == 0 && pkt.Kind == netem.Data && pkt.Seq == size-MSS && !dropped {
			dropped = true
			return false
		}
		return true
	}
	snd := openFlow(t, p, cfg, size)
	snd.Start()
	s.RunUntil(5 * units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	if snd.Stats.Timeouts < 1 {
		t.Fatalf("timeouts = %d, want >= 1", snd.Stats.Timeouts)
	}
}

func TestSynLossRecovered(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	first := true
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if pkt.Kind == netem.Syn && first {
			first = false
			return false
		}
		return true
	}
	snd := openFlow(t, p, testCfg(), 10*units.KB)
	snd.Start()
	s.RunUntil(units.Second)
	if !snd.Done() {
		t.Fatal("flow with lost SYN did not complete")
	}
	if snd.Stats.Timeouts < 1 {
		t.Fatal("lost SYN should cost a timeout")
	}
}

func TestReorderingGeneratesDupAcksAndOOO(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	p.intercept, _ = lateSegment2(p)
	snd := openFlow(t, p, cfg, 16*MSS)
	snd.Start()
	s.RunUntil(5 * units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	if snd.Stats.OutOfOrder == 0 {
		t.Fatal("no out-of-order arrivals recorded despite reordering")
	}
	if snd.Stats.DupAcksSent != DupAckThreshold-1 || snd.Stats.FastRetx != 0 {
		t.Fatalf("%d duplicate ACKs and %d fast retransmits, want %d and none", snd.Stats.DupAcksSent, snd.Stats.FastRetx, DupAckThreshold-1)
	}
	if snd.Stats.Retransmits != 0 {
		t.Fatal("pure reordering should not trigger retransmission here")
	}
}

func TestECNMarksCutWindowDCTCP(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if dir == 0 && pkt.Kind == netem.Data {
			pkt.CE = true // everything marked: alpha -> 1
		}
		return true
	}
	snd := openFlow(t, p, cfg, 200*MSS)
	snd.Start()
	s.RunUntil(10 * units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	if snd.Stats.ECNAcks == 0 {
		t.Fatal("no ECN-echo ACKs seen")
	}
	if snd.Stats.WindowCuts == 0 {
		t.Fatal("persistent CE marks caused no window reductions")
	}
	// Under full marking DCTCP converges toward ~2 MSS windows, so the
	// max window should stay well below the receive window.
	if snd.Stats.MaxCwnd > RcvWindow/2 {
		t.Fatalf("cwnd %v grew despite full ECN marking", snd.Stats.MaxCwnd)
	}
}

func TestECNClassicHalving(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	cfg.NewReno = true
	markOnce := true
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if dir == 0 && pkt.Kind == netem.Data && markOnce && pkt.Seq > 10*MSS {
			pkt.CE = true
			markOnce = false
		}
		return true
	}
	snd := openFlow(t, p, cfg, 100*MSS)
	snd.Start()
	s.RunUntil(10 * units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	if snd.Stats.WindowCuts != 1 {
		t.Fatalf("window cuts = %d, want exactly 1", snd.Stats.WindowCuts)
	}
}

func TestDuplicateDataIsIdempotent(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if dir == 0 && pkt.Kind == netem.Data && pkt.Seq == 0 {
			// Deliver the first segment twice.
			dup := *pkt
			s.After(10*units.Microsecond, func() { p.hosts[1].Receive(&dup) })
		}
		return true
	}
	snd := openFlow(t, p, cfg, 8*MSS)
	snd.Start()
	s.RunUntil(units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	if snd.Stats.BytesAcked != 8*MSS {
		t.Fatalf("acked %v", snd.Stats.BytesAcked)
	}
}

// TestReliabilityUnderRandomLoss is the transport's core property: any
// pattern of random loss (below 100%) must still deliver the flow.
func TestReliabilityUnderRandomLoss(t *testing.T) {
	f := func(seed uint64, lossPct uint8) bool {
		loss := float64(lossPct%30) / 100 // 0–29% loss
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
		return snd.Done() && snd.Stats.BytesAcked == 40*MSS
	}
	// Seeded: the property must hold for any input, but CI runs the
	// same inputs every time. Bump the seed to explore new ones.
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHostDispatchUnknownFlowIsDropped(t *testing.T) {
	s := eventsim.New()
	h := NewHost(s, 0, func(*netem.Packet) {})
	// Must not panic.
	h.Receive(&netem.Packet{Flow: netem.FlowID{Src: 9, Dst: 0}, Kind: netem.Data})
	h.Receive(&netem.Packet{Flow: netem.FlowID{Src: 0, Dst: 9}.Reversed(), Kind: netem.Ack})
	h.Receive(&netem.Packet{Flow: netem.FlowID{Src: 9, Dst: 0}, Kind: netem.Syn})
	h.Receive(&netem.Packet{Flow: netem.FlowID{Src: 9, Dst: 0}, Kind: netem.SynAck})
}

func TestDeadlineAccounting(t *testing.T) {
	fs := FlowStats{Deadline: 100, Done: true, End: 90}
	if fs.MissedDeadline(1000) {
		t.Fatal("on-time flow reported missed")
	}
	fs.End = 110
	if !fs.MissedDeadline(1000) {
		t.Fatal("late flow reported on time")
	}
	unfinished := FlowStats{Deadline: 100}
	if unfinished.MissedDeadline(50) {
		t.Fatal("unfinished flow before deadline reported missed")
	}
	if !unfinished.MissedDeadline(150) {
		t.Fatal("unfinished flow past deadline reported on time")
	}
	noDeadline := FlowStats{}
	if noDeadline.MissedDeadline(1 << 40) {
		t.Fatal("deadline-free flow reported missed")
	}
}

// TestConfigDefaults: the zero Config is the paper's transport — a
// 10 ms RTO floor, backoff capped at 1 s — and a floor above the cap
// raises the cap with it.
func TestConfigDefaults(t *testing.T) {
	for _, tc := range []struct {
		cfg      Config
		min, max units.Time
	}{
		{Config{}, 10 * units.Millisecond, units.Second},
		{Config{MinRTO: 50 * units.Millisecond}, 50 * units.Millisecond, units.Second},
		{Config{MinRTO: 2 * units.Second}, 2 * units.Second, 2 * units.Second},
	} {
		if got := tc.cfg.minRTO(); got != tc.min {
			t.Errorf("%+v: min RTO %v, want %v", tc.cfg, got, tc.min)
		}
		if got := tc.cfg.maxRTO(); got != tc.max {
			t.Errorf("%+v: max RTO %v, want %v", tc.cfg, got, tc.max)
		}
	}
}

// TestSenderInvariantsProperty drives flows through random loss, CE
// marking and extra delay, asserting the sequencing invariants that
// hold for any correct TCP: snd_una is monotone, never exceeds what was
// sent, and the flow completes exactly when snd_una reaches the size.
func TestSenderInvariantsProperty(t *testing.T) {
	f := func(seed uint64, lossPct, markPct uint8, segs uint8) bool {
		loss := float64(lossPct%25) / 100
		mark := float64(markPct%50) / 100
		size := units.Bytes(int(segs%60)+1) * 1460
		rng := eventsim.NewRNG(seed)
		s := eventsim.New()
		p := newPipe(s, testDelay)
		cfg := testCfg()

		var lastUna units.Bytes
		var maxSent units.Bytes
		violated := false
		p.intercept = func(dir int, pkt *netem.Packet) bool {
			if dir == 0 && pkt.Kind == netem.Data {
				if end := pkt.Seq + pkt.Payload; end > maxSent {
					maxSent = end
				}
				if rng.Float64() < mark {
					pkt.CE = true
				}
			}
			if dir == 1 && pkt.Kind == netem.Ack {
				if pkt.Ack > maxSent {
					violated = true // acked bytes never sent
				}
			}
			return rng.Float64() >= loss
		}
		snd := openFlow(t, p, cfg, size)
		snd.Start()
		for i := 0; i < 400000 && !snd.Done(); i++ {
			if !s.Step() {
				break
			}
			if snd.Stats.BytesAcked < lastUna {
				violated = true
			}
			lastUna = snd.Stats.BytesAcked
		}
		return !violated && snd.Done() && snd.Stats.BytesAcked == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestDCTCPAlphaConvergesUnderFullMarking(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if dir == 0 && pkt.Kind == netem.Data {
			pkt.CE = true
		}
		return true
	}
	snd := openFlow(t, p, cfg, 400*MSS)
	snd.Start()
	s.RunUntil(30 * units.Second)
	if !snd.Done() {
		t.Fatal("not done")
	}
	// With every packet marked, alpha -> 1 and the window is cut by
	// ~alpha/2 every round: cwnd should end near its floor.
	if snd.alpha < 0.9 {
		t.Fatalf("alpha = %v, want near 1 under full marking", snd.alpha)
	}
	if snd.Cwnd() > 4*MSS {
		t.Fatalf("cwnd = %v did not converge down", snd.Cwnd())
	}
}

func TestDuplicateSynAckIgnored(t *testing.T) {
	s := eventsim.New()
	p := newPipe(s, testDelay)
	cfg := testCfg()
	var dup *netem.Packet
	p.intercept = func(dir int, pkt *netem.Packet) bool {
		if dir == 1 && pkt.Kind == netem.SynAck && dup == nil {
			c := *pkt
			dup = &c
			s.After(100*units.Microsecond, func() { p.hosts[0].Receive(dup) })
		}
		return true
	}
	snd := openFlow(t, p, cfg, 8*MSS)
	snd.Start()
	s.RunUntil(units.Second)
	if !snd.Done() || snd.Stats.BytesAcked != 8*MSS {
		t.Fatal("duplicate SYN-ACK broke the flow")
	}
}

func TestSenderAccessors(t *testing.T) {
	s := eventsim.New()
	cfg := testCfg()
	snd := loneFlow(s, cfg, netem.FlowID{Src: 0, Dst: 1}, 1000, discard, discard)
	if snd.ID() != (netem.FlowID{Src: 0, Dst: 1}) || snd.Size() != 1000 || snd.Done() {
		t.Fatal("accessors")
	}
	if snd.Cwnd() != 2*MSS {
		t.Fatalf("initial cwnd %v", snd.Cwnd())
	}
}

func TestZeroSizeFlowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	loneFlow(eventsim.New(), testCfg(), netem.FlowID{Src: 0, Dst: 1}, 0, discard, discard)
}
