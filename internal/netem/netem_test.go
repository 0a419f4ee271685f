package netem

import (
	"testing"
	"testing/quick"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

func pkt(n units.Bytes) *Packet {
	return &Packet{Flow: FlowID{Src: 0, Dst: 1}, Kind: Data, Payload: n - 40, Wire: n}
}

// Link: 1500B at 1Gbps serializes in 12µs.
var testLink = LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond}

func TestPortDeliversWithSerializationAndPropagation(t *testing.T) {
	s := eventsim.New()
	var deliveredAt units.Time
	p := NewPort(s, testLink, QueueConfig{}, func(*Packet) { deliveredAt = s.Now() }, "t")
	p.Send(pkt(1500))
	s.Run()
	want := 12*units.Microsecond + 10*units.Microsecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestPortBackToBackSerialization(t *testing.T) {
	s := eventsim.New()
	var times []units.Time
	p := NewPort(s, testLink, QueueConfig{}, func(*Packet) { times = append(times, s.Now()) }, "t")
	for i := 0; i < 3; i++ {
		p.Send(pkt(1500))
	}
	s.Run()
	// Deliveries at 12+10, 24+10, 36+10 µs.
	want := []units.Time{22 * units.Microsecond, 34 * units.Microsecond, 46 * units.Microsecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestQueueLenExcludesInService(t *testing.T) {
	s := eventsim.New()
	p := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "t")
	for i := 0; i < 5; i++ {
		p.Send(pkt(1500))
	}
	// At t=0 one packet is in service, 4 wait.
	if got := p.QueueLen(); got != 4 {
		t.Fatalf("QueueLen at t0 = %d, want 4", got)
	}
	// After 2 serializations (24µs) 2 remain waiting.
	s.RunUntil(24 * units.Microsecond)
	if got := p.QueueLen(); got != 2 {
		t.Fatalf("QueueLen at 24µs = %d, want 2", got)
	}
	s.Run()
	if got := p.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after drain = %d, want 0", got)
	}
}

func TestDropTail(t *testing.T) {
	s := eventsim.New()
	delivered := 0
	p := NewPort(s, testLink, QueueConfig{Capacity: 3}, func(*Packet) { delivered++ }, "t")
	sent := 0
	for i := 0; i < 10; i++ {
		if p.Send(pkt(1500)) {
			sent++
		}
	}
	// 1 in service + 3 queued admitted; the rest dropped.
	if sent != 4 {
		t.Fatalf("admitted %d, want 4", sent)
	}
	s.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d, want 4", delivered)
	}
	if d := p.Queue().Stats().Dropped; d != 6 {
		t.Fatalf("drops = %d, want 6", d)
	}
}

func TestECNMarking(t *testing.T) {
	s := eventsim.New()
	var marked int
	p := NewPort(s, testLink, QueueConfig{Capacity: 100, ECNThreshold: 2},
		func(pk *Packet) {
			if pk.CE {
				marked++
			}
		}, "t")
	for i := 0; i < 6; i++ {
		p.Send(pkt(1500))
	}
	s.Run()
	// Arrivals see waiting lengths 0,0,1,2,3,4 -> marked when >= 2:
	// the 4th, 5th and 6th packets.
	if marked != 3 {
		t.Fatalf("marked %d, want 3", marked)
	}
	if m := p.Queue().Stats().Marked; m != 3 {
		t.Fatalf("stats.Marked = %d, want 3", m)
	}
}

func TestQueueDelayAccounting(t *testing.T) {
	s := eventsim.New()
	var delays []units.Time
	p := NewPort(s, testLink, QueueConfig{}, func(pk *Packet) { delays = append(delays, pk.QueueDelay) }, "t")
	for i := 0; i < 3; i++ {
		p.Send(pkt(1500))
	}
	s.Run()
	// Waiting times: 0, 12µs, 24µs.
	want := []units.Time{0, 12 * units.Microsecond, 24 * units.Microsecond}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delay %d = %v, want %v", i, delays[i], want[i])
		}
	}
}

func TestMaxQueueSeen(t *testing.T) {
	s := eventsim.New()
	var seen []int
	p := NewPort(s, testLink, QueueConfig{}, func(pk *Packet) { seen = append(seen, pk.MaxQueueSeen) }, "t")
	for i := 0; i < 4; i++ {
		p.Send(pkt(1500))
	}
	s.Run()
	want := []int{0, 0, 1, 2}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("MaxQueueSeen %d = %d, want %d", i, seen[i], want[i])
		}
	}
}

func TestBusyTime(t *testing.T) {
	s := eventsim.New()
	p := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "t")
	for i := 0; i < 5; i++ {
		p.Send(pkt(1500))
	}
	s.Run()
	if got, want := p.BusyTime(), 60*units.Microsecond; got != want {
		t.Fatalf("BusyTime = %v, want %v", got, want)
	}
}

// TestConservation: admitted packets are all delivered, exactly once,
// in FIFO order, regardless of arrival pattern.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := eventsim.NewRNG(seed)
		s := eventsim.New()
		var delivered []int
		p := NewPort(s, testLink, QueueConfig{Capacity: 8}, func(pk *Packet) {
			delivered = append(delivered, pk.Flow.Port)
		}, "t")
		admitted := []int{}
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			i := i
			at := units.Time(rng.Intn(2000)) * units.Microsecond
			s.At(at, func() {
				pk := pkt(units.Bytes(100 + rng.Intn(1400)))
				pk.Flow.Port = i
				if p.Send(pk) {
					admitted = append(admitted, i)
				}
			})
		}
		s.Run()
		if len(delivered) != len(admitted) {
			return false
		}
		for i := range admitted {
			if delivered[i] != admitted[i] {
				return false
			}
		}
		return p.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowIDHashDeterministicAndSeeded(t *testing.T) {
	id := FlowID{Src: 3, Dst: 9, Port: 42}
	if id.Hash(1) != id.Hash(1) {
		t.Fatal("hash not deterministic")
	}
	if id.Hash(1) == id.Hash(2) {
		t.Fatal("hash ignores seed")
	}
	if id.Hash(1) == id.Reversed().Hash(1) {
		t.Fatal("hash ignores direction")
	}
}

func TestFlowIDReversed(t *testing.T) {
	id := FlowID{Src: 1, Dst: 2, Port: 7}
	r := id.Reversed()
	if r.Src != 2 || r.Dst != 1 || r.Port != 7 {
		t.Fatalf("Reversed = %v", r)
	}
	if r.Reversed() != id {
		t.Fatal("double reverse is not identity")
	}
}

// TestNewPortRejectsWideQueueConfig: the port stores both queue limits
// in 32 bits and Config must hand back what was given, so a value that
// does not fit is refused at construction (topology.Config.Validate
// turns the same condition into an error before any port is built).
func TestNewPortRejectsWideQueueConfig(t *testing.T) {
	s := eventsim.New()
	cfg := QueueConfig{Capacity: 1 << 20, ECNThreshold: -1}
	if got := NewPort(s, testLink, cfg, func(*Packet) {}, "t").Queue().Config(); got != cfg {
		t.Fatalf("Config() = %+v, want %+v", got, cfg)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewPort accepted a capacity past 32 bits")
		}
	}()
	NewPort(s, testLink, QueueConfig{Capacity: 1 << 31}, func(*Packet) {}, "t")
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Data: "DATA", Ack: "ACK", Syn: "SYN", SynAck: "SYNACK"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

func TestEstimatedDelay(t *testing.T) {
	s := eventsim.New()
	p := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "t")
	ownTx := testLink.Bandwidth.TxTime(refWire)
	// Empty: propagation plus the placed packet's own serialization.
	if got := p.EstimatedDelay(); got != testLink.Delay+ownTx {
		t.Fatalf("empty EstimatedDelay = %v, want %v", got, testLink.Delay+ownTx)
	}
	// 3 packets of 1500B: the committed backlog — the in-service
	// packet's residual plus the two waiting — drains 36µs from now.
	for i := 0; i < 3; i++ {
		p.Send(pkt(1500))
	}
	want := testLink.Delay + ownTx + testLink.Bandwidth.TxTime(3*1500)
	if got := p.EstimatedDelay(); got != want {
		t.Fatalf("EstimatedDelay with backlog = %v, want %v", got, want)
	}
}

func TestEstimatedDelayComparableAcrossAsymmetricPorts(t *testing.T) {
	s := eventsim.New()
	fast := NewPort(s, LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		QueueConfig{}, func(*Packet) {}, "fast")
	slow := NewPort(s, LinkConfig{Bandwidth: units.Gbps, Delay: 4 * units.Millisecond},
		QueueConfig{}, func(*Packet) {}, "slow")
	// Both empty: the fast port must look strictly cheaper even though
	// both queue lengths are zero.
	if fast.QueueLen() != slow.QueueLen() {
		t.Fatal("queue lengths differ unexpectedly")
	}
	if fast.EstimatedDelay() >= slow.EstimatedDelay() {
		t.Fatal("delay asymmetry invisible to EstimatedDelay")
	}
	// It takes ~333 packets of backlog at 1 Gbps to make the fast port
	// as expensive as the slow port's bare propagation delay.
	for i := 0; i < 100; i++ {
		fast.Send(pkt(1500))
	}
	if fast.EstimatedDelay() >= slow.EstimatedDelay() {
		t.Fatal("100-packet backlog should still be cheaper than +4ms")
	}
	for i := 0; i < 300; i++ {
		fast.Send(pkt(1500))
	}
	if fast.EstimatedDelay() <= slow.EstimatedDelay() {
		t.Fatal("400-packet backlog should exceed +4ms")
	}
}

func TestQueueBytesAccounting(t *testing.T) {
	s := eventsim.New()
	p := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "t")
	for i := 0; i < 4; i++ {
		p.Send(pkt(1500))
	}
	// First packet in service: 3 waiting -> 4500 bytes.
	if got := p.Queue().Bytes(s.Now()); got != 4500 {
		t.Fatalf("Bytes = %v, want 4500", got)
	}
	s.Run()
	if got := p.Queue().Bytes(s.Now()); got != 0 {
		t.Fatalf("Bytes after drain = %v", got)
	}
	st := p.Queue().Stats()
	if st.Enqueued != 4 || st.Dequeued != 4 || st.BytesIn != 6000 || st.BytesOut != 6000 {
		t.Fatalf("stats %+v", st)
	}
}
