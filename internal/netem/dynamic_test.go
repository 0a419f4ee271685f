package netem

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// TestEstimatedDelayChargesResidual is the regression for the
// estimator bug where the in-service packet's remaining serialization
// (lastFinish − now) was not charged: a port midway through a frame on
// a slow link looked as cheap as an idle one. Two unequal-rate ports,
// one packet each.
func TestEstimatedDelayChargesResidual(t *testing.T) {
	s := eventsim.New()
	fast := NewPort(s, LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		QueueConfig{}, func(*Packet) {}, "fast")
	slow := NewPort(s, LinkConfig{Bandwidth: 100 * units.Mbps, Delay: 10 * units.Microsecond},
		QueueConfig{}, func(*Packet) {}, "slow")
	fast.Send(pkt(1500))
	slow.Send(pkt(1500)) // serializes for 120µs, until t=120µs

	// At t=0 the whole frame is still ahead: delay + own tx + resid.
	if got, want := fast.EstimatedDelay(), (10+12+12)*units.Microsecond; got != want {
		t.Fatalf("fast estimate at t=0 = %v, want %v", got, want)
	}
	if got, want := slow.EstimatedDelay(), (10+120+120)*units.Microsecond; got != want {
		t.Fatalf("slow estimate at t=0 = %v, want %v", got, want)
	}

	// At t=100µs the slow port is mid-frame: 20µs of serialization
	// remain and must be charged. (The old waiting-bytes backlog term
	// was zero here — the frame is in service, not waiting.)
	s.RunUntil(100 * units.Microsecond)
	if got, want := fast.EstimatedDelay(), (10+12)*units.Microsecond; got != want {
		t.Fatalf("fast estimate at t=100µs = %v, want %v", got, want)
	}
	if got, want := slow.EstimatedDelay(), (10+120+20)*units.Microsecond; got != want {
		t.Fatalf("slow estimate at t=100µs = %v, want %v (residual not charged?)", got, want)
	}
}

// TestEstimatedDelayCountsWaitingBacklog: with several packets queued,
// the estimate covers the full committed backlog, not just the
// in-service packet.
func TestEstimatedDelayCountsWaitingBacklog(t *testing.T) {
	s := eventsim.New()
	p := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "t")
	for i := 0; i < 3; i++ {
		p.Send(pkt(1500))
	}
	// Backlog drains at t=36µs; estimate = delay + own tx + 36µs.
	if got, want := p.EstimatedDelay(), (10+12+36)*units.Microsecond; got != want {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
}

// TestMaxQueueSeenOnlyOnAdmission is the regression for the accounting
// bug where a dropped packet recorded the queue length it was rejected
// at, polluting the per-packet queue-seen distribution (Fig. 3a).
func TestMaxQueueSeenOnlyOnAdmission(t *testing.T) {
	s := eventsim.New()
	p := NewPort(s, testLink, QueueConfig{Capacity: 3}, func(*Packet) {}, "t")
	var admitted []*Packet
	for i := 0; i < 4; i++ {
		pk := pkt(1500)
		if !p.Send(pk) {
			t.Fatalf("packet %d unexpectedly dropped", i)
		}
		admitted = append(admitted, pk)
	}
	dropped := pkt(1500)
	if p.Send(dropped) {
		t.Fatal("5th packet should have hit the 3-packet cap")
	}
	if dropped.MaxQueueSeen != 0 {
		t.Fatalf("dropped packet recorded MaxQueueSeen=%d, want 0", dropped.MaxQueueSeen)
	}
	// The last admitted packet saw 2 waiting ahead of it.
	if got := admitted[3].MaxQueueSeen; got != 2 {
		t.Fatalf("last admitted packet MaxQueueSeen=%d, want 2", got)
	}
	// SumLenOnArrival intentionally still counts the dropped arrival.
	if got := p.Queue().Stats().SumLenOnArrival; got != 0+0+1+2+3 {
		t.Fatalf("SumLenOnArrival=%d, want 6", got)
	}
}

// TestDownPortDropsAtAdmission: a down port fails Send, counts the drop
// in FaultDropped (not Dropped), and still delivers what was already
// committed to the wire.
func TestDownPortDropsAtAdmission(t *testing.T) {
	s := eventsim.New()
	delivered := 0
	p := NewPort(s, testLink, QueueConfig{Capacity: 100}, func(*Packet) { delivered++ }, "t")
	if !p.Send(pkt(1500)) {
		t.Fatal("send on healthy port failed")
	}
	p.SetDown(true)
	if !p.Down() {
		t.Fatal("Down() = false after SetDown(true)")
	}
	for i := 0; i < 3; i++ {
		if p.Send(pkt(1500)) {
			t.Fatal("send on down port succeeded")
		}
	}
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (in-flight packet survives the failure)", delivered)
	}
	st := p.Queue().Stats()
	if st.FaultDropped != 3 {
		t.Fatalf("FaultDropped=%d, want 3", st.FaultDropped)
	}
	if st.Dropped != 0 {
		t.Fatalf("Dropped=%d, want 0 (fault drops are not buffer drops)", st.Dropped)
	}
	p.SetDown(false)
	if !p.Send(pkt(1500)) {
		t.Fatal("send after revival failed")
	}
	s.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d after revival, want 2", delivered)
	}
}

// TestPopDeliveredWithoutAdvance reaches popDelivered's
// not-yet-started accounting branch: when no occupancy query ever ran
// advance(), delivery itself must settle the entry's Dequeued/BytesOut
// accounting.
func TestPopDeliveredWithoutAdvance(t *testing.T) {
	s := eventsim.New()
	p := NewPort(s, testLink, QueueConfig{}, func(*Packet) {}, "t")
	pk := pkt(1500)
	p.Send(pk) // admit on an empty queue runs advance on nothing
	s.Run()
	st := p.Queue().Stats()
	if st.Dequeued != 1 || st.BytesOut != pk.Wire {
		t.Fatalf("Dequeued=%d BytesOut=%d, want 1 and %d", st.Dequeued, st.BytesOut, pk.Wire)
	}
	if got := p.Queue().Bytes(s.Now()); got != 0 {
		t.Fatalf("waiting bytes after drain = %d, want 0", got)
	}
	if got := p.QueueLen(); got != 0 {
		t.Fatalf("queue length after drain = %d, want 0", got)
	}
}
