package netem

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

func TestPacketPoolRecyclesZeroed(t *testing.T) {
	pp := NewPacketPool()
	p := pp.Get()
	p.Flow = FlowID{Src: 1, Dst: 2, Port: 3}
	p.Kind = Ack
	p.Seq = 1000
	p.Payload = 1460
	p.Wire = 1500
	p.Ack = 99
	p.SackBlocks[0] = SackBlock{Start: 1, End: 2}
	p.SackCount = 1
	p.CE = true
	p.ECNEcho = true
	p.FIN = true
	p.SentAt = 7
	p.Retransmit = true
	p.QueueDelay = 9
	p.MaxQueueSeen = 10
	pp.Put(p)

	q := pp.Get()
	//simlint:allow packetown(the test pins recycle identity: comparing the stale pointer is the point)
	if q != p {
		t.Fatal("pool did not recycle the released packet")
	}
	if *q != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *q)
	}
	if pp.Recycled() != 1 || pp.Allocated() != 1 {
		t.Fatalf("counters: allocated=%d recycled=%d, want 1/1", pp.Allocated(), pp.Recycled())
	}
}

// TestPacketPoolLIFO pins deterministic reuse order: last released,
// first reused. Determinism of reuse order is part of the byte-identity
// contract (any accidental coupling to it must at least be stable).
func TestPacketPoolLIFO(t *testing.T) {
	pp := NewPacketPool()
	a, b := pp.Get(), pp.Get()
	pp.Put(a)
	pp.Put(b)
	if pp.Idle() != 2 {
		t.Fatalf("idle = %d, want 2", pp.Idle())
	}
	//simlint:allow packetown(the LIFO test compares released pointers by identity on purpose)
	if got := pp.Get(); got != b {
		t.Fatal("pool is not LIFO: first Get after Put(a), Put(b) was not b")
	}
	//simlint:allow packetown(the LIFO test compares released pointers by identity on purpose)
	if got := pp.Get(); got != a {
		t.Fatal("pool is not LIFO: second Get was not a")
	}
}

func TestPacketPoolDoublePutPanics(t *testing.T) {
	pp := NewPacketPool()
	p := pp.Get()
	pp.Put(p)
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	//simlint:allow packetown(the test provokes the double-release panic the contract promises)
	pp.Put(p)
}

// TestSendWhileQueuedPanics: a queued packet is its port's FIFO entry,
// so handing it to a second port would splice the two chains; admit
// catches it the way the pool catches a double release.
func TestSendWhileQueuedPanics(t *testing.T) {
	s := eventsim.New()
	a := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "a")
	b := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "b")
	p := pkt(1500)
	a.Send(p)
	defer func() {
		if recover() == nil {
			t.Error("Send of a packet still queued on another port did not panic")
		}
	}()
	b.Send(p)
}

func TestPutWhileQueuedPanics(t *testing.T) {
	s := eventsim.New()
	pp := NewPacketPool()
	port := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "t")
	p := pp.Get()
	p.Wire = 1500
	port.Send(p)
	defer func() {
		if recover() == nil {
			t.Error("Put of a packet a port still has queued did not panic")
		}
	}()
	pp.Put(p)
}

// TestRefusedPacketNotQueued: a packet Send refuses — buffer full or
// link down — was never linked, so the switch that saw the refusal can
// release it, and delivery clears the mark for the receiving sink.
func TestRefusedPacketNotQueued(t *testing.T) {
	s := eventsim.New()
	pp := NewPacketPool()
	var delivered *Packet
	port := NewPort(s, testLink, QueueConfig{Capacity: 1}, func(p *Packet) { delivered = p }, "t")
	send := func() (*Packet, bool) {
		p := pp.Get()
		p.Wire = 1500
		return p, port.Send(p)
	}
	send() // in service
	send() // fills the one waiting slot
	full, ok := send()
	if ok || full.queued {
		t.Fatalf("buffer-full Send = %v, queued = %v; want refused and unmarked", ok, full.queued)
	}
	pp.Put(full)
	port.SetDown(true)
	cut, ok := send()
	if ok || cut.queued {
		t.Fatalf("link-down Send = %v, queued = %v; want refused and unmarked", ok, cut.queued)
	}
	pp.Put(cut)
	s.Step()
	if delivered == nil || delivered.queued {
		t.Fatal("a delivered packet is still marked queued")
	}
	pp.Put(delivered)
}

// TestPortTransitSteadyStateAllocFree is the engine-level allocation
// gate at the netem layer: once the pool and freelist are warm, a full send+serialize+deliver+release cycle through a Port
// must not allocate at all.
func TestPortTransitSteadyStateAllocFree(t *testing.T) {
	s := eventsim.New()
	pp := NewPacketPool()
	p := NewPort(s,
		LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		QueueConfig{Capacity: 1 << 20},
		func(pkt *Packet) { pp.Put(pkt) }, "gate")

	transit := func() {
		pkt := pp.Get()
		pkt.Flow = FlowID{Src: 1, Dst: 2}
		pkt.Kind = Data
		pkt.Payload = 1460
		pkt.Wire = 1500
		if !p.Send(pkt) {
			t.Fatal("send refused")
		}
		s.Run()
	}
	for i := 0; i < 4096; i++ { // warm pool, freelist
		transit()
	}
	if allocs := testing.AllocsPerRun(2000, transit); allocs != 0 {
		t.Fatalf("steady-state port transit allocates %.1f allocs/op, want 0", allocs)
	}
	if pp.Allocated() > 2 {
		t.Fatalf("pool allocated %d packets for a 1-deep pipeline", pp.Allocated())
	}
}
